//! Seeded model tests for the dense member tables: `MemberMap` and
//! `FrameRefs` must behave exactly like the `BTreeMap`s they replaced —
//! including around recycled slots, where a stale `ObjectId` probing a
//! reused slot must miss on the full-id compare rather than false-hit.
//! A knode's incrementally merged member view must likewise always
//! equal the ordered set of frames its members map to, and the
//! due-stamped member-demotion walk must move exactly what a walk that
//! probes every member would.
//!
//! Sequences come from the in-tree seeded `SplitMix64` PRNG (fixed
//! seeds, so failures reproduce exactly).

use std::collections::{BTreeMap, BTreeSet};

use kloc_core::knode::ViewWork;
use kloc_core::members::{FrameRefs, MemberMap};
use kloc_core::{KlocConfig, KlocRegistry, Kmap, Knode};
use kloc_kernel::hooks::CpuId;
use kloc_kernel::vfs::InodeId;
use kloc_kernel::{KernelObjectType, ObjectId, ObjectInfo};
use kloc_mem::{FrameId, MemorySystem, Nanos, PageKind, SplitMix64, TierId, PAGE_SIZE};

/// Draws an `ObjectId` from a pool sized to force heavy slot reuse:
/// low bits collide across ids whose high bits differ, so recycled
/// slots see lookups by both the old and new full id.
fn gen_obj(rng: &mut SplitMix64) -> ObjectId {
    let low = rng.gen_below(32);
    let high = rng.gen_below(4) << 40;
    ObjectId(high | low)
}

#[test]
fn member_map_matches_btreemap_model() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(0xD0_5E00 + case);
        let mut dense = MemberMap::default();
        let mut model: BTreeMap<ObjectId, FrameId> = BTreeMap::new();

        for step in 0..400 {
            let obj = gen_obj(&mut rng);
            match rng.gen_below(3) {
                0 | 1 => {
                    let frame = FrameId(rng.gen_below(64));
                    assert_eq!(
                        dense.insert(obj, frame),
                        model.insert(obj, frame),
                        "case {case} step {step}: insert({obj}, {frame})"
                    );
                }
                _ => {
                    assert_eq!(
                        dense.remove(obj),
                        model.remove(&obj),
                        "case {case} step {step}: remove({obj})"
                    );
                }
            }
            // A probe by an id that may share a (recycled) slot with a
            // live entry must agree with the model — full-id compare.
            let probe = gen_obj(&mut rng);
            assert_eq!(dense.get(probe), model.get(&probe).copied());
            assert_eq!(dense.len(), model.len());
            assert_eq!(dense.is_empty(), model.is_empty());
        }
        // The ordered view is exactly the BTreeMap's iteration order.
        let want: Vec<(ObjectId, FrameId)> = model.iter().map(|(&o, &f)| (o, f)).collect();
        assert_eq!(dense.sorted(), want, "case {case}: iteration order");
    }
}

#[test]
fn frame_refs_match_refcount_model() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(0xF8_4E00 + case);
        let mut dense = FrameRefs::default();
        let mut model: BTreeMap<FrameId, u32> = BTreeMap::new();

        for step in 0..400 {
            let frame = FrameId(rng.gen_below(48));
            if rng.gen_below(2) == 0 {
                let newly = dense.add(frame);
                let rc = model.entry(frame).or_insert(0);
                *rc += 1;
                assert_eq!(newly, *rc == 1, "case {case} step {step}: add({frame})");
            } else {
                let left = dense.unref(frame);
                let mut gone = false;
                if let Some(rc) = model.get_mut(&frame) {
                    *rc -= 1;
                    if *rc == 0 {
                        model.remove(&frame);
                        gone = true;
                    }
                }
                assert_eq!(left, gone, "case {case} step {step}: unref({frame})");
            }
            let probe = FrameId(rng.gen_below(48));
            assert_eq!(dense.count(probe), model.get(&probe).copied().unwrap_or(0));
            assert_eq!(dense.len(), model.len());
            assert_eq!(dense.is_empty(), model.is_empty());
        }
        // Sorted collection matches the model's key order.
        let mut got = Vec::new();
        dense.collect_sorted(&mut got);
        let want: Vec<FrameId> = model.keys().copied().collect();
        assert_eq!(got, want, "case {case}: sorted frames");
    }
}

/// A frame id whose slot (low 32 bits) collides across generations, so
/// full-id order disagrees with slot order: `(gen << 32) | slot`.
fn gen_frame(rng: &mut SplitMix64) -> FrameId {
    FrameId((rng.gen_below(3) << 32) | rng.gen_below(24))
}

/// Fixed per object, so an object always lands in the same member table
/// (odd ids share slab frames, even ids are page-backed).
fn obj_type(obj: ObjectId) -> KernelObjectType {
    if obj.0.is_multiple_of(2) {
        KernelObjectType::PageCache
    } else {
        KernelObjectType::Dentry
    }
}

#[test]
fn knode_member_view_matches_btreeset_model() {
    let ino = InodeId(1);
    let (mut rebuilds, mut merges) = (0u32, 0u32);
    for case in 0..96u64 {
        let mut rng = SplitMix64::seed_from_u64(0x5E_7A00 + case);
        let mut kmap = Kmap::new();
        kmap.map_knode(Knode::new(ino, Nanos::ZERO));
        let mut model: BTreeMap<ObjectId, FrameId> = BTreeMap::new();
        let work = ViewWork::default();
        // Rare views let adds outrun the frame count between walks,
        // which must fall back to a full re-collect.
        let view_every = [2, 8, 64][(case % 3) as usize];
        let mut walked = false;

        for step in 0..600 {
            let obj = ObjectId(rng.gen_below(144));
            let ty = obj_type(obj);
            kmap.with_knode_mut(ino, |k, _| match rng.gen_below(8) {
                // Add, or move an already tracked object to a new frame.
                0..=3 => {
                    let frame = gen_frame(&mut rng);
                    k.add_obj(obj, ty, frame);
                    model.insert(obj, frame);
                }
                4 | 5 => {
                    assert_eq!(k.remove_obj(obj), model.remove(&obj).is_some());
                }
                // Remove and re-add on the same frame.
                6 => {
                    if let Some(&frame) = model.get(&obj) {
                        k.remove_obj(obj);
                        k.add_obj(obj, ty, frame);
                    }
                }
                // A burst of adds and moves onto random frames.
                _ => {
                    for n in 0..rng.gen_below(48) {
                        let obj = ObjectId(96 + n);
                        let frame = gen_frame(&mut rng);
                        k.add_obj(obj, obj_type(obj), frame);
                        model.insert(obj, frame);
                    }
                }
            });
            #[cfg(feature = "ksan")]
            if step % 4 == 0 {
                let mut out = Vec::new();
                kmap.ksan_audit(&mut out);
                assert_eq!(out, vec![], "case {case} step {step}");
            }
            if rng.gen_below(view_every) == 0 {
                let (sorted, merged) = (work.frames_sorted(), work.adds_merged());
                let k = kmap.get(ino).expect("knode mapped");
                let got = k.with_member_frames(&work, <[FrameId]>::to_vec);
                let want: Vec<FrameId> = model
                    .values()
                    .copied()
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                assert_eq!(got, want, "case {case} step {step}");
                assert_eq!(k.member_frame_count(), want.len());
                rebuilds += u32::from(walked && work.frames_sorted() > sorted);
                merges += u32::from(work.adds_merged() > merged);
                walked = true;
            }
        }
        let k = kmap.get(ino).expect("knode mapped");
        let want: Vec<FrameId> = model
            .values()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(k.member_frames(), want, "case {case}: final view");
    }
    assert!(merges > 0, "some walks merged pending adds");
    assert!(rebuilds > 0, "some walks fell back to a full re-collect");
}

/// One simulated machine: memory plus the registry tracking it.
struct World {
    mem: MemorySystem,
    reg: KlocRegistry,
}

const INODES: u64 = 3;

impl World {
    fn new() -> Self {
        let mut reg = KlocRegistry::new(KlocConfig {
            max_migrations: 6,
            ..KlocConfig::default()
        });
        for ino in 1..=INODES {
            reg.inode_created(InodeId(ino), CpuId(0), Nanos::ZERO);
        }
        World {
            mem: MemorySystem::two_tier(40 * PAGE_SIZE, 8),
            reg,
        }
    }

    fn track(&mut self, obj: ObjectId, ty: KernelObjectType, ino: u64, frame: FrameId) {
        let info = ObjectInfo {
            ty,
            size: ty.size(),
            inode: Some(InodeId(ino)),
        };
        let now = self.mem.now();
        self.reg.object_allocated(obj, &info, frame, CpuId(0), now);
    }

    fn untrack(&mut self, obj: ObjectId, ty: KernelObjectType, ino: u64) {
        let info = ObjectInfo {
            ty,
            size: ty.size(),
            inode: Some(InodeId(ino)),
        };
        self.reg.object_freed(obj, &info);
    }

    /// Every frame's tier, in the given order (`None` once freed).
    fn tiers(&self, frames: &[FrameId]) -> Vec<Option<TierId>> {
        frames.iter().map(|&f| self.mem.tier_if_live(f)).collect()
    }
}

/// The member-demotion walk as it stood before due stamps, from public
/// APIs only: probe every member frame in ascending order. Returns the
/// frames moved and the frames probed.
fn reference_demote(
    w: &mut World,
    ino: u64,
    older_than: Nanos,
    max_pages: u64,
) -> (Vec<FrameId>, u64) {
    let now = w.mem.now();
    let max_migrations = w.reg.config().max_migrations;
    let (mut moved, mut probed) = (Vec::new(), 0);
    for frame in w.reg.member_frames(InodeId(ino)) {
        if moved.len() as u64 >= max_pages {
            break;
        }
        probed += 1;
        let Some(last) = w.mem.last_access_if_live(frame) else {
            continue;
        };
        if now.saturating_sub(last) < older_than || w.mem.tier_if_live(frame) != Some(TierId::FAST)
        {
            continue;
        }
        let Some(f) = w.mem.frame_meta(frame) else {
            continue;
        };
        if !f.pinned && f.migrations < max_migrations && w.mem.migrate(frame, TierId::SLOW).is_ok()
        {
            moved.push(frame);
        }
    }
    (moved, probed)
}

#[test]
fn stamped_member_demotion_matches_probing_every_member() {
    let (mut skipped_walks, mut zero_budget) = (0u32, 0u32);
    for case in 0..48u64 {
        let mut rng = SplitMix64::seed_from_u64(0xD0E_5700 + case);
        // `a` runs the registry's stamped walk, `b` the reference walk;
        // every other operation is applied to both identically.
        let (mut a, mut b) = (World::new(), World::new());
        // Live objects: id -> (type, inode, frame).
        let mut objs: BTreeMap<ObjectId, (KernelObjectType, u64, FrameId)> = BTreeMap::new();
        // Relocatable frames packing several objects (slab-style).
        let mut shared: Vec<FrameId> = Vec::new();
        let mut frames: Vec<FrameId> = Vec::new();
        let mut next_obj = 0u64;
        let mut ref_probes = 0u64;
        for step in 0..500 {
            let ino = 1 + rng.gen_below(INODES);
            let pick = |rng: &mut SplitMix64, objs: &BTreeMap<ObjectId, _>| {
                let n = objs.len() as u64;
                (n > 0).then(|| *objs.keys().nth(rng.gen_below(n) as usize).unwrap())
            };
            match rng.gen_below(16) {
                // Add a page-backed object on its own frame, or a
                // small object on a shared frame.
                0..=2 => {
                    let obj = ObjectId(next_obj);
                    next_obj += 1;
                    let (ty, frame) = if shared.is_empty() || rng.gen_below(3) == 0 {
                        let tier = TierId(u8::from(rng.gen_below(3) == 0));
                        let kind = if rng.gen_below(4) == 0 {
                            PageKind::KernelVma
                        } else {
                            PageKind::PageCache
                        };
                        let Ok(f) = a.mem.allocate(tier, kind) else {
                            continue;
                        };
                        assert_eq!(b.mem.allocate(tier, kind), Ok(f));
                        frames.push(f);
                        if kind == PageKind::KernelVma {
                            shared.push(f);
                            (KernelObjectType::Dentry, f)
                        } else {
                            (KernelObjectType::PageCache, f)
                        }
                    } else {
                        let f = shared[rng.gen_below(shared.len() as u64) as usize];
                        (KernelObjectType::Dentry, f)
                    };
                    a.track(obj, ty, ino, frame);
                    b.track(obj, ty, ino, frame);
                    objs.insert(obj, (ty, ino, frame));
                }
                // Touch a member frame (advances time by its cost).
                3 | 4 => {
                    if let Some(obj) = pick(&mut rng, &objs) {
                        let frame = objs[&obj].2;
                        a.mem.read(frame, 64);
                        b.mem.read(frame, 64);
                    }
                }
                // Let time pass.
                5 => {
                    let dt = Nanos::from_micros(rng.gen_below(2_500));
                    a.mem.charge(dt);
                    b.mem.charge(dt);
                }
                // Move an object to another knode.
                6 => {
                    if let Some(obj) = pick(&mut rng, &objs) {
                        let (ty, old, frame) = objs[&obj];
                        for w in [&mut a, &mut b] {
                            w.untrack(obj, ty, old);
                            w.track(obj, ty, ino, frame);
                        }
                        objs.insert(obj, (ty, ino, frame));
                    }
                }
                // Free an object (and its frame, when it owns one).
                7 => {
                    if let Some(obj) = pick(&mut rng, &objs) {
                        let (ty, old, frame) = objs.remove(&obj).unwrap();
                        for w in [&mut a, &mut b] {
                            w.untrack(obj, ty, old);
                            if ty == KernelObjectType::PageCache {
                                w.mem.free(frame).unwrap();
                            }
                        }
                    }
                }
                8 => {
                    let max = rng.gen_below(6);
                    let hot = Nanos::from_millis(2);
                    let pa = a
                        .reg
                        .promote_hot_members(InodeId(ino), &mut a.mem, hot, max);
                    let pb = b
                        .reg
                        .promote_hot_members(InodeId(ino), &mut b.mem, hot, max);
                    assert_eq!(pa, pb, "case {case} step {step}: promotion");
                }
                // Promote or demote a frame behind the registry's back.
                9 | 10 => {
                    if let Some(obj) = pick(&mut rng, &objs) {
                        let frame = objs[&obj].2;
                        let to = TierId(u8::from(rng.gen_below(2) == 0));
                        for w in [&mut a, &mut b] {
                            if w.mem.migrate(frame, to).is_ok() {
                                if to == TierId::FAST {
                                    w.reg.note_external_promotions();
                                } else {
                                    w.reg.note_external_demotions();
                                }
                            }
                        }
                    }
                }
                // En-masse migration of a whole knode.
                11 => {
                    let to = TierId(u8::from(rng.gen_below(2) == 0));
                    let ma = a.reg.migrate_knode(InodeId(ino), &mut a.mem, to);
                    let mb = b.reg.migrate_knode(InodeId(ino), &mut b.mem, to);
                    assert_eq!(ma, mb, "case {case} step {step}: en masse");
                }
                // The walk under test.
                _ => {
                    let older_than = Nanos::from_millis([1, 3][rng.gen_below(2) as usize]);
                    let budget = [0, 2, 8, u64::MAX][rng.gen_below(4) as usize];
                    let before = a.tiers(&frames);
                    let probes = a.reg.frames_probed();
                    let moved =
                        a.reg
                            .demote_cold_members(InodeId(ino), &mut a.mem, older_than, budget);
                    let after = a.tiers(&frames);
                    let mut got: Vec<FrameId> = frames
                        .iter()
                        .zip(before.iter().zip(&after))
                        .filter(|(_, (x, y))| x != y)
                        .map(|(&f, _)| f)
                        .collect();
                    let (want, probed) = reference_demote(&mut b, ino, older_than, budget);
                    ref_probes += probed;
                    assert_eq!(moved, want.len() as u64, "case {case} step {step}");
                    let mut want = want;
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "case {case} step {step}: frames moved");
                    skipped_walks += u32::from(a.reg.frames_probed() - probes < probed);
                    zero_budget += u32::from(budget == 0);
                }
            }
            assert_eq!(
                a.tiers(&frames),
                b.tiers(&frames),
                "case {case} step {step}: tiers"
            );
            #[cfg(feature = "ksan")]
            if step % 8 == 0 {
                let mut out = Vec::new();
                a.reg.ksan_audit(&mut out);
                a.reg.ksan_audit_dues(&a.mem, &mut out);
                assert_eq!(out, vec![], "case {case} step {step}");
            }
        }
        // `b` never runs the stamped walk: its probes are the shared
        // promotion and en-masse walks, the same as `a`'s.
        assert!(
            a.reg.frames_probed() <= b.reg.frames_probed() + ref_probes,
            "case {case}: {} stamped vs {} + {ref_probes} reference probes",
            a.reg.frames_probed(),
            b.reg.frames_probed()
        );
    }
    assert!(zero_budget > 0);
    assert!(
        skipped_walks > 100,
        "stamps skipped probes on {skipped_walks} walks"
    );
}
