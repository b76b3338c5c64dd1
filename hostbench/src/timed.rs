//! An observation-only policy wrapper.
//!
//! [`TimedPolicy`] delegates every [`Policy`] and [`KernelHooks`] method
//! to the policy it wraps, so a run through it returns the same
//! `RunReport` as an unwrapped run. It stamps its creation time and
//! thread, optionally times each call the kernel and engine make into
//! the policy, and on drop hands the collected [`PolicyTrace`] to a
//! shared sink.

use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Instant;

use kloc_core::{KlocRegistry, KlocStats};
use kloc_kernel::hooks::{CpuId, KernelHooks, PageRequest, Placement};
use kloc_kernel::vfs::InodeId;
use kloc_kernel::{Kernel, ObjectId, ObjectInfo, TenantSpec};
use kloc_mem::{FrameId, MemorySystem, MigrationCost, Nanos, TenantId};
use kloc_policy::{Policy, PolicyKind};
use kloc_sim::runner::PolicyFactory;

/// Calls and summed raw host nanoseconds of one hook category.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Raw summed duration, clock cost included.
    pub ns: u64,
}

impl Tally {
    /// Duration net of `clock_ns` per call, in milliseconds.
    pub fn net_ms(&self, clock_ns: f64) -> f64 {
        (self.ns as f64 - self.calls as f64 * clock_ns) / 1e6
    }
}

/// What one wrapped policy observed over its lifetime.
#[derive(Debug, Clone)]
pub struct PolicyTrace {
    /// Index of the run in its batch (0 for a single run).
    pub job: usize,
    /// When the wrapper was built (the run is about to start).
    pub start: Instant,
    /// When the wrapper was dropped (the run has returned).
    pub end: Instant,
    /// The thread that ran it.
    pub thread: ThreadId,
    /// `tick`.
    pub tick: Tally,
    /// `on_object_access` and `on_app_page_access`.
    pub access: Tally,
    /// Inode create/open/close/destroy, object alloc/free/associate,
    /// app-page alloc and page free.
    pub lifecycle: Tally,
    /// `place_page`.
    pub place: Tally,
    /// Raw duration of each `tick` call, in call order.
    pub tick_ns: Vec<u64>,
}

impl PolicyTrace {
    /// Every timed call.
    pub fn calls(&self) -> u64 {
        self.tick.calls + self.access.calls + self.lifecycle.calls + self.place.calls
    }

    /// Lifetime of the wrapper in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        u64::try_from(self.end.duration_since(self.start).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Where dropped wrappers leave their traces.
pub type Sink = Arc<Mutex<Vec<PolicyTrace>>>;

/// The observation-only wrapper.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    time_calls: bool,
    trace: PolicyTrace,
    sink: Sink,
}

impl TimedPolicy {
    /// Wraps `inner`, the policy of run `job`. With `time_calls` off
    /// only the lifetime is stamped.
    pub fn new(inner: Box<dyn Policy>, job: usize, time_calls: bool, sink: Sink) -> Self {
        let now = Instant::now();
        TimedPolicy {
            inner,
            time_calls,
            trace: PolicyTrace {
                job,
                start: now,
                end: now,
                thread: thread::current().id(),
                tick: Tally::default(),
                access: Tally::default(),
                lifecycle: Tally::default(),
                place: Tally::default(),
                tick_ns: Vec::new(),
            },
            sink,
        }
    }

    /// A runner factory for run `job`, building `kind` wrapped on the
    /// worker thread that executes the job.
    pub fn factory(kind: PolicyKind, job: usize, time_calls: bool, sink: Sink) -> PolicyFactory {
        Box::new(move || {
            Box::new(TimedPolicy::new(
                kind.build(),
                job,
                time_calls,
                sink.clone(),
            ))
        })
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        self.trace.end = Instant::now();
        let trace = PolicyTrace {
            tick_ns: std::mem::take(&mut self.trace.tick_ns),
            ..self.trace.clone()
        };
        // A poisoned sink means another run panicked; drop this trace
        // rather than panic during that unwind.
        if let Ok(mut traces) = self.sink.lock() {
            traces.push(trace);
        }
    }
}

/// Runs `f`, adding its duration to `tally` when `on`.
#[inline]
fn timed<R>(on: bool, tally: &mut Tally, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    tally.calls += 1;
    tally.ns += ns;
    r
}

impl KernelHooks for TimedPolicy {
    fn place_page(&mut self, req: &PageRequest, mem: &MemorySystem) -> Placement {
        timed(self.time_calls, &mut self.trace.place, || {
            self.inner.place_page(req, mem)
        })
    }

    fn relocatable_kernel_alloc(&self) -> bool {
        self.inner.relocatable_kernel_alloc()
    }

    fn early_socket_demux(&self) -> bool {
        self.inner.early_socket_demux()
    }

    fn on_inode_create(
        &mut self,
        inode: InodeId,
        cpu: CpuId,
        tenant: TenantId,
        mem: &mut MemorySystem,
    ) {
        timed(self.time_calls, &mut self.trace.lifecycle, || {
            self.inner.on_inode_create(inode, cpu, tenant, mem)
        })
    }

    fn on_inode_open(&mut self, inode: InodeId, cpu: CpuId, mem: &mut MemorySystem) {
        timed(self.time_calls, &mut self.trace.lifecycle, || {
            self.inner.on_inode_open(inode, cpu, mem)
        })
    }

    fn on_inode_close(&mut self, inode: InodeId, mem: &mut MemorySystem) {
        timed(self.time_calls, &mut self.trace.lifecycle, || {
            self.inner.on_inode_close(inode, mem)
        })
    }

    fn on_inode_destroy(&mut self, inode: InodeId, mem: &mut MemorySystem) {
        timed(self.time_calls, &mut self.trace.lifecycle, || {
            self.inner.on_inode_destroy(inode, mem)
        })
    }

    fn on_object_alloc(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        cpu: CpuId,
        mem: &mut MemorySystem,
    ) {
        timed(self.time_calls, &mut self.trace.lifecycle, || {
            self.inner.on_object_alloc(obj, info, frame, cpu, mem)
        })
    }

    fn on_object_free(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        mem: &mut MemorySystem,
    ) {
        timed(self.time_calls, &mut self.trace.lifecycle, || {
            self.inner.on_object_free(obj, info, frame, mem)
        })
    }

    fn on_object_access(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        cpu: CpuId,
        tenant: TenantId,
        mem: &mut MemorySystem,
    ) {
        timed(self.time_calls, &mut self.trace.access, || {
            self.inner
                .on_object_access(obj, info, frame, cpu, tenant, mem)
        })
    }

    fn on_object_associate(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        cpu: CpuId,
        mem: &mut MemorySystem,
    ) {
        timed(self.time_calls, &mut self.trace.lifecycle, || {
            self.inner.on_object_associate(obj, info, frame, cpu, mem)
        })
    }

    fn on_app_page_alloc(&mut self, frame: FrameId, cpu: CpuId, mem: &mut MemorySystem) {
        timed(self.time_calls, &mut self.trace.lifecycle, || {
            self.inner.on_app_page_alloc(frame, cpu, mem)
        })
    }

    fn on_app_page_access(&mut self, frame: FrameId, cpu: CpuId, mem: &mut MemorySystem) {
        timed(self.time_calls, &mut self.trace.access, || {
            self.inner.on_app_page_access(frame, cpu, mem)
        })
    }

    fn on_page_free(&mut self, frame: FrameId, mem: &mut MemorySystem) {
        timed(self.time_calls, &mut self.trace.lifecycle, || {
            self.inner.on_page_free(frame, mem)
        })
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tick(&mut self, kernel: &Kernel, mem: &mut MemorySystem) {
        if !self.time_calls {
            return self.inner.tick(kernel, mem);
        }
        let before = self.trace.tick.ns;
        timed(true, &mut self.trace.tick, || self.inner.tick(kernel, mem));
        self.trace.tick_ns.push(self.trace.tick.ns - before);
    }

    fn tick_interval(&self) -> Nanos {
        self.inner.tick_interval()
    }

    fn migration_cost(&self) -> MigrationCost {
        self.inner.migration_cost()
    }

    fn registry(&self) -> Option<&KlocRegistry> {
        self.inner.registry()
    }

    fn kloc_stats(&self) -> Option<KlocStats> {
        self.inner.kloc_stats()
    }

    fn peak_migration_batch(&self) -> u64 {
        self.inner.peak_migration_batch()
    }

    fn set_task_socket(&mut self, socket: u8) {
        self.inner.set_task_socket(socket)
    }

    fn configure_tenants(&mut self, specs: &[TenantSpec]) {
        self.inner.configure_tenants(specs)
    }
}
