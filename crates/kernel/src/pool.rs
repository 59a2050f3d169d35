//! Pooled process instantiation: content-addressed masters + slot reuse.
//!
//! A [`ProcessPool`] keeps one [`MemoryPool`] per registered [`Variant`],
//! keyed by the variant binary's content key. [`ProcessPool::spawn`] is the
//! fast path the `process_churn` gate measures: acquire a copy-on-write
//! slot (or a recycled one whose dirt was already restored), point a fresh
//! CPU at the master's entry, done — O(µs), independent of image size.
//! [`ProcessPool::recycle`] returns a slot after its guest exits, restoring
//! only the spans the run dirtied and emitting
//! [`TraceEvent::SlotRecycled`] so the trace-overhead gate can reconcile
//! recycles exactly against the `pool.slots_recycled` counter.
//!
//! The master image is built from the same layout function as an eager
//! [`crate::Process::load`] of the variant — sections, the stack, and the
//! `[lazy]` rewrite slack when the variant has a target section — so
//! pooled and eagerly loaded processes observe identical address spaces.

use crate::process::{lazy_base, map_layout, Variant};
use chimera_emu::{boot_cpu, Cpu, MasterImage, Memory, MemoryPool, PoolStats};
use chimera_isa::ExtSet;
use chimera_obj::DEFAULT_STACK_SIZE;
use chimera_rewrite::content_key;
use chimera_trace::{TraceEvent, Tracer};
use std::time::Instant;

/// One registered variant: its content key, runtime tables, and the
/// memory pool over its master image.
struct PoolEntry {
    key: u64,
    variant: Variant,
    pool: MemoryPool,
}

/// A pool of spawnable processes, one slot pool per registered variant.
pub struct ProcessPool {
    entries: Vec<PoolEntry>,
    stack_bytes: u64,
    tracer: Tracer,
}

impl ProcessPool {
    /// An empty pool with the default per-process stack
    /// ([`chimera_obj::DEFAULT_STACK_SIZE`]) and no tracing.
    pub fn new() -> ProcessPool {
        ProcessPool::with_config(DEFAULT_STACK_SIZE, Tracer::disabled())
    }

    /// An empty pool with an explicit stack size and trace handle.
    pub fn with_config(stack_bytes: u64, tracer: Tracer) -> ProcessPool {
        assert!(stack_bytes > 0, "stack must be at least one byte");
        ProcessPool {
            entries: Vec::new(),
            stack_bytes,
            tracer,
        }
    }

    /// Registers a variant and returns its content key. Registering the
    /// same content twice returns the existing key without building a
    /// second master; the `[lazy]` slack is folded into the key's flags so
    /// table-less and table-bearing builds of the same bytes never alias.
    pub fn register(&mut self, variant: Variant) -> u64 {
        let lazy = lazy_base(&variant.tables).unwrap_or(0);
        let key = content_key(&variant.binary, "process-pool", lazy);
        if self.entries.iter().any(|e| e.key == key) {
            return key;
        }
        let mut master = MasterImage::new();
        map_layout(
            &variant.binary,
            &variant.tables,
            self.stack_bytes,
            |at, bytes, perms, name| master.push_region(at, bytes, perms, name),
        );
        self.entries.push(PoolEntry {
            key,
            variant,
            pool: MemoryPool::new(master),
        });
        key
    }

    /// Pre-reserves `slots` instantiated memories for `key`'s pool.
    pub fn prewarm(&mut self, key: u64, slots: usize) {
        if let Some(e) = self.entry_mut(key) {
            e.pool.prewarm(slots);
        }
    }

    /// The registered variant for `key`.
    pub fn variant(&self, key: u64) -> Option<&Variant> {
        self.entries
            .iter()
            .find(|e| e.key == key)
            .map(|e| &e.variant)
    }

    /// Lifetime slot counters for `key`'s pool.
    pub fn stats(&self, key: u64) -> Option<PoolStats> {
        self.entries
            .iter()
            .find(|e| e.key == key)
            .map(|e| e.pool.stats())
    }

    /// Slots currently free in `key`'s pool.
    pub fn free_slots(&self, key: u64) -> usize {
        self.entries
            .iter()
            .find(|e| e.key == key)
            .map_or(0, |e| e.pool.free_slots())
    }

    /// The spawn fast path: a booted CPU on a pooled slot. Observes the
    /// wall-clock spawn latency into the `pool.spawn_ns` histogram and
    /// bumps `pool.spawns`.
    pub fn spawn(&mut self, key: u64, profile: ExtSet) -> Option<(Cpu, Memory)> {
        let enabled = self.tracer.is_enabled();
        let start = enabled.then(Instant::now);
        let e = self.entry_mut(key)?;
        let cpu = boot_cpu(profile, e.variant.binary.entry, e.variant.binary.gp);
        let booted = (cpu, e.pool.acquire());
        if let Some(start) = start {
            self.tracer
                .observe("pool.spawn_ns", start.elapsed().as_nanos() as u64);
            self.tracer.count("pool.spawns", 1);
        }
        Some(booted)
    }

    /// Returns a slot after its guest ran on `hart`. On a successful
    /// recycle, emits [`TraceEvent::SlotRecycled`] with the restored byte
    /// count and bumps `pool.slots_recycled`; a slot whose layout diverged
    /// (or that belongs to no registered pool) is dropped and counted
    /// under `pool.slots_discarded`. Returns the restored byte count.
    pub fn recycle(&mut self, key: u64, hart: u64, mem: Memory) -> Option<u64> {
        let Some(e) = self.entry_mut(key) else {
            self.tracer.count("pool.slots_discarded", 1);
            return None;
        };
        match e.pool.release(mem) {
            Some(restored_bytes) => {
                if self.tracer.is_enabled() {
                    self.tracer.record(
                        0,
                        TraceEvent::SlotRecycled {
                            hart,
                            restored_bytes,
                        },
                    );
                    self.tracer.count("pool.slots_recycled", 1);
                }
                Some(restored_bytes)
            }
            None => {
                self.tracer.count("pool.slots_discarded", 1);
                None
            }
        }
    }

    fn entry_mut(&mut self, key: u64) -> Option<&mut PoolEntry> {
        self.entries.iter_mut().find(|e| e.key == key)
    }
}

impl Default for ProcessPool {
    fn default() -> Self {
        ProcessPool::new()
    }
}
