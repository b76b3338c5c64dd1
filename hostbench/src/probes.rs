//! Unit-cost probes: host nanoseconds of single public operations of
//! `kloc-mem`, `kloc-kernel` and `kloc-core`, each on a fresh, warmed
//! instance. The kernel runs with [`NullHooks`], so no policy cost is
//! included.

use std::error::Error;
use std::hint::black_box;
use std::time::{Duration, Instant};

use kloc_core::{KlocConfig, KlocRegistry};
use kloc_kernel::hooks::{CpuId, Ctx, NullHooks};
use kloc_kernel::vfs::InodeId;
use kloc_kernel::{Kernel, KernelObjectType, KernelParams, ObjectId, ObjectInfo};
use kloc_mem::{AccessOp, FrameId, MemorySystem, Nanos, PageKind, TierId};

use crate::stats::median;

type Res<T> = Result<T, Box<dyn Error>>;

/// Frames touched per `access_batch` call.
const BATCH_FRAMES: usize = 64;

/// Timed batches per probe; each probe reports their median.
pub const BATCHES: usize = 9;

/// Host time each timed batch of a probe aims for.
const BATCH_TIME: Duration = Duration::from_millis(4);

/// Median host ns per call of `op` over [`BATCHES`] timed batches, after
/// a warm-up batch that also sizes them.
fn per_call_ns(mut op: impl FnMut() -> Res<()>) -> Res<f64> {
    let t0 = Instant::now();
    let mut warm = 0u64;
    while t0.elapsed() < BATCH_TIME {
        op()?;
        warm += 1;
    }
    let iters = warm.max(1);
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            op()?;
        }
        samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    Ok(median(&samples))
}

fn fresh_mem() -> MemorySystem {
    MemorySystem::two_tier(u64::MAX, 8)
}

/// Every probe as `(metric name, ns)`, in a fixed order.
///
/// # Errors
/// Propagates the first operation that fails.
pub fn run_all() -> Res<Vec<(&'static str, f64)>> {
    Ok(vec![
        ("mem.alloc_free_ns", mem_alloc_free()?),
        ("mem.access_ns", mem_access()?),
        ("mem.access_batch_ns_per_op", mem_access_batch()?),
        ("mem.migrate_round_trip_ns", mem_migrate_round_trip()?),
        ("kernel.write_read_4k_ns", kernel_write_read_4k()?),
        ("kernel.open_close_ns", kernel_open_close()?),
        ("kernel.socket_round_trip_ns", kernel_socket_round_trip()?),
        ("core.track_untrack_ns", core_track_untrack()?),
        ("core.object_access_ns", core_object_access()?),
    ])
}

fn mem_alloc_free() -> Res<f64> {
    let mut mem = fresh_mem();
    per_call_ns(|| {
        let f = mem.allocate(TierId::FAST, PageKind::AppData)?;
        mem.free(black_box(f))?;
        Ok(())
    })
}

fn mem_access() -> Res<f64> {
    let mut mem = fresh_mem();
    let f = mem.allocate(TierId::FAST, PageKind::AppData)?;
    per_call_ns(|| {
        black_box(mem.read(black_box(f), 4096));
        Ok(())
    })
}

fn mem_access_batch() -> Res<f64> {
    let mut mem = fresh_mem();
    let mut ops = Vec::with_capacity(BATCH_FRAMES);
    for i in 0..BATCH_FRAMES {
        let (tier, kind) = if i % 2 == 0 {
            (TierId::FAST, PageKind::PageCache)
        } else {
            (TierId::SLOW, PageKind::AppData)
        };
        let f = mem.allocate(tier, kind)?;
        ops.push(if i % 4 == 3 {
            AccessOp::write(f, 4096)
        } else {
            AccessOp::read(f, 4096)
        });
    }
    let per_batch = per_call_ns(|| {
        black_box(mem.access_batch(None, black_box(&ops)));
        Ok(())
    })?;
    Ok(per_batch / BATCH_FRAMES as f64)
}

fn mem_migrate_round_trip() -> Res<f64> {
    let mut mem = fresh_mem();
    let f = mem.allocate(TierId::FAST, PageKind::PageCache)?;
    per_call_ns(|| {
        mem.migrate(f, TierId::SLOW)?;
        mem.migrate(f, TierId::FAST)?;
        Ok(())
    })
}

fn kernel_write_read_4k() -> Res<f64> {
    let mut mem = fresh_mem();
    let mut hooks = NullHooks::fast_first();
    let mut k = Kernel::new(KernelParams::default());
    let fd = k.create(&mut Ctx::new(&mut mem, &mut hooks), "/bench")?;
    per_call_ns(|| {
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        k.write(&mut ctx, fd, 0, 4096)?;
        black_box(k.read(&mut ctx, fd, 0, 4096)?);
        Ok(())
    })
}

fn kernel_open_close() -> Res<f64> {
    let mut mem = fresh_mem();
    let mut hooks = NullHooks::fast_first();
    let mut k = Kernel::new(KernelParams::default());
    {
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.create(&mut ctx, "/bench")?;
        k.close(&mut ctx, fd)?;
    }
    per_call_ns(|| {
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.open(&mut ctx, "/bench")?;
        k.close(&mut ctx, black_box(fd))?;
        Ok(())
    })
}

fn kernel_socket_round_trip() -> Res<f64> {
    let mut mem = fresh_mem();
    let mut hooks = NullHooks::fast_first();
    let mut k = Kernel::new(KernelParams::default());
    let fd = k.socket(&mut Ctx::new(&mut mem, &mut hooks))?;
    per_call_ns(|| {
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        k.deliver(&mut ctx, fd, 256)?;
        black_box(k.recv(&mut ctx, fd, 256)?);
        black_box(k.send(&mut ctx, fd, 512)?);
        Ok(())
    })
}

fn page_cache_info() -> ObjectInfo {
    ObjectInfo {
        ty: KernelObjectType::PageCache,
        size: 4096,
        inode: Some(InodeId(1)),
    }
}

fn core_track_untrack() -> Res<f64> {
    let mut reg = KlocRegistry::new(KlocConfig::default());
    reg.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
    let info = page_cache_info();
    let mut n = 0u64;
    per_call_ns(|| {
        let id = ObjectId(n);
        n += 1;
        reg.object_allocated(id, &info, FrameId(n), CpuId(0), Nanos::ZERO);
        reg.object_freed(black_box(id), &info);
        Ok(())
    })
}

fn core_object_access() -> Res<f64> {
    let mut reg = KlocRegistry::new(KlocConfig::default());
    reg.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
    let info = page_cache_info();
    per_call_ns(|| {
        reg.object_accessed(black_box(&info), CpuId(0), Nanos::ZERO);
        Ok(())
    })
}
