//! Seeded model tests for the dense member tables: `MemberMap` and
//! `FrameRefs` must behave exactly like the `BTreeMap`s they replaced —
//! including around recycled slots, where a stale `ObjectId` probing a
//! reused slot must miss on the full-id compare rather than false-hit.
//! A knode's incrementally merged member view must likewise always
//! equal the ordered set of frames its members map to.
//!
//! Sequences come from the in-tree seeded `SplitMix64` PRNG (fixed
//! seeds, so failures reproduce exactly).

use std::collections::{BTreeMap, BTreeSet};

use kloc_core::knode::ViewWork;
use kloc_core::members::{FrameRefs, MemberMap};
use kloc_core::{Kmap, Knode};
use kloc_kernel::vfs::InodeId;
use kloc_kernel::{KernelObjectType, ObjectId};
use kloc_mem::{FrameId, Nanos, SplitMix64};

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
