//! The per-inode knode.
//!
//! Every file/socket inode gets a knode — a "table of contents" naming
//! every kernel object associated with that inode (paper Fig. 1). The
//! members are split across two tables, mirroring the paper's
//! `rbtree-cache` / `rbtree-slab` split (§4.2.3): separating page-cache
//! pages from small slab objects keeps each table small and the split
//! organizationally meaningful. Since PR 7 the tables are the dense
//! open-addressed [`crate::members::MemberMap`]s rather than
//! `BTreeMap`s: the member add/remove/touch path sits on every syscall,
//! so it probes a flat slot array instead of chasing tree nodes, and
//! ordered views are derived only where order is report-visible (see
//! the `members` module docs).
//!
//! Aging is *lazy*: instead of a scan bumping a counter on every knode
//! each epoch (O(knodes) per tick), a knode records the
//! [`crate::Kmap`] epoch it was last synchronized at and derives its age
//! on demand as the number of epochs it has since sat inactive. The
//! kmap's global epoch advance is then O(1) — the paper's claim that
//! KLOCs age "as a side effect of events" rather than by scanning
//! (§4.3).

use std::cell::{Cell, RefCell};

use kloc_mem::{FrameId, Nanos, TierId};

use kloc_kernel::hooks::CpuId;
use kloc_kernel::vfs::InodeId;
use kloc_kernel::{Backing, KernelObjectType, ObjectId};

use crate::members::{FrameRefs, MemberMap};

/// Which member tree an object landed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberTree {
    /// `rbtree-cache`: page-backed objects (page-cache pages, data
    /// buffers, journal blocks).
    Cache,
    /// `rbtree-slab`: small slab-class objects (inodes, dentries, …).
    Slab,
}

/// A knode: the KLOC bookkeeping attached to one inode.
#[derive(Debug, Clone)]
pub struct Knode {
    inode: InodeId,
    /// Whether the inode is currently open/active.
    inuse: bool,
    /// Age accrued up to `synced_epoch` (materialized on activation
    /// transitions; zero after any touch).
    age_base: u32,
    /// Kmap epoch at which `age_base` was last materialized. While
    /// inactive, one age unit accrues per epoch since.
    synced_epoch: u64,
    /// CPU that last touched this knode (`find_cpu` in Table 2).
    last_cpu: CpuId,
    /// Last access time.
    last_active: Nanos,
    /// Page-backed members: object -> backing frame (`rbtree-cache`).
    cache: MemberMap,
    /// Slab-class members: object -> backing frame (`rbtree-slab`).
    slab: MemberMap,
    /// Distinct frames backing members, refcounted (several slab
    /// objects can share a frame). Kept incrementally so en-masse
    /// migration collects it directly instead of deduplicating the
    /// member tables on every call.
    frames: FrameRefs,
    /// Ascending view of `frames` (the report-visible migration order)
    /// with per-frame demotion due stamps, maintained incrementally
    /// between walks; see [`MemberView`].
    view: RefCell<MemberView>,
    /// Memoized outcome of a *settled* en-masse migration walk:
    /// `(target tier, ping-pong skips the walk charges, external
    /// migration epoch)`. While valid, a repeat walk toward the same
    /// tier can move nothing and charges exactly the cached skip count,
    /// so the registry answers it in O(1) instead of re-probing every
    /// member frame. Cleared whenever the distinct frame set changes or
    /// frames are promoted back (registry paths), and keyed to the
    /// registry's external-migration epoch so app-LRU migrations of
    /// member frames invalidate it too.
    enmasse_cache: Cell<Option<(TierId, u64, u64)>>,
}

impl Knode {
    /// Creates a knode for `inode`, initially in use.
    pub fn new(inode: InodeId, now: Nanos) -> Self {
        Knode {
            inode,
            inuse: true,
            age_base: 0,
            synced_epoch: 0,
            last_cpu: CpuId(0),
            last_active: now,
            cache: MemberMap::default(),
            slab: MemberMap::default(),
            frames: FrameRefs::default(),
            view: RefCell::new(MemberView::default()),
            enmasse_cache: Cell::new(None),
        }
    }

    /// The inode this knode belongs to.
    pub fn inode(&self) -> InodeId {
        self.inode
    }

    /// Whether the inode is active (open).
    pub fn inuse(&self) -> bool {
        self.inuse
    }

    /// LRU age as of `epoch`: epochs spent inactive since the last
    /// touch. Active knodes do not accrue age.
    pub fn age_at(&self, epoch: u64) -> u32 {
        let accrued = if self.inuse {
            0
        } else {
            epoch.saturating_sub(self.synced_epoch)
        };
        u32::try_from(u64::from(self.age_base).saturating_add(accrued)).unwrap_or(u32::MAX)
    }

    /// The effective epoch this knode has been inactive since — the
    /// ordering key of the kmap's inactive index (`age_at(epoch)` ==
    /// `epoch - inactive_stamp()` whenever the age fits in a `u32`).
    pub(crate) fn inactive_stamp(&self) -> u64 {
        self.synced_epoch.saturating_sub(u64::from(self.age_base))
    }

    /// Materializes the age accrued so far into `age_base` and re-bases
    /// it on `epoch`. Called on activation transitions so the age stops
    /// (or resumes) accruing from the right point.
    pub(crate) fn sync_age_at(&mut self, epoch: u64) {
        self.age_base = self.age_at(epoch);
        self.synced_epoch = epoch;
    }

    /// Marks the knode active/inactive as of `epoch`. No-op when the
    /// state does not change (a repeated close must not restart the
    /// inactivity clock).
    pub(crate) fn set_inuse_at(&mut self, inuse: bool, epoch: u64) {
        if self.inuse != inuse {
            self.sync_age_at(epoch);
            self.inuse = inuse;
        }
    }

    /// CPU that last accessed the knode (paper's `find_cpu`).
    pub fn last_cpu(&self) -> CpuId {
        self.last_cpu
    }

    /// Last access time.
    pub fn last_active(&self) -> Nanos {
        self.last_active
    }

    /// Records an access as of `epoch`: resets the age, stamps time and
    /// CPU.
    pub(crate) fn touch_at(&mut self, cpu: CpuId, now: Nanos, epoch: u64) {
        self.age_base = 0;
        self.synced_epoch = epoch;
        self.last_cpu = cpu;
        self.last_active = now;
    }

    /// Adds a member object (`knode_add_obj` in Table 2); routed to the
    /// cache or slab table by the object's backing. Returns the table
    /// used. O(1) amortized: one dense-table probe plus a refcount bump.
    pub fn add_obj(&mut self, obj: ObjectId, ty: KernelObjectType, frame: FrameId) -> MemberTree {
        let (tree, prev) = match ty.backing() {
            Backing::Page(_) => (MemberTree::Cache, self.cache.insert(obj, frame)),
            Backing::Slab => (MemberTree::Slab, self.slab.insert(obj, frame)),
        };
        let mut changed = false;
        if let Some(old) = prev {
            if self.frames.unref(old) {
                self.view.get_mut().note_removed(old, self.frames.len());
                changed = true;
            }
        }
        if self.frames.add(frame) {
            self.view.get_mut().note_added(frame, self.frames.len());
            changed = true;
        }
        if changed {
            self.clear_enmasse_cache();
        }
        tree
    }

    /// Removes a member. Returns whether it was tracked. O(1) amortized.
    pub fn remove_obj(&mut self, obj: ObjectId) -> bool {
        let frame = self.cache.remove(obj).or_else(|| self.slab.remove(obj));
        match frame {
            Some(f) => {
                if self.frames.unref(f) {
                    self.view.get_mut().note_removed(f, self.frames.len());
                    self.clear_enmasse_cache();
                }
                true
            }
            None => false,
        }
    }

    /// Number of members across both tables.
    pub fn member_count(&self) -> usize {
        self.cache.len() + self.slab.len()
    }

    /// Whether the knode tracks no objects.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty() && self.slab.is_empty()
    }

    /// Page-backed members ascending by `ObjectId` (`itr_knode_cache`).
    /// Derived on demand — the insert/remove path maintains no order.
    pub fn cache_members(&self) -> Vec<(ObjectId, FrameId)> {
        self.cache.sorted()
    }

    /// Slab-class members ascending by `ObjectId` (`itr_knode_slab`).
    /// Derived on demand — the insert/remove path maintains no order.
    pub fn slab_members(&self) -> Vec<(ObjectId, FrameId)> {
        self.slab.sorted()
    }

    /// Visits the deduplicated frames backing all members in unordered
    /// (slot) order — deterministic, but only for order-insensitive
    /// consumers such as residency counts.
    pub fn for_each_member_frame(&self, mut f: impl FnMut(FrameId)) {
        self.frames.for_each(|frame, _| f(frame));
    }

    /// Hands `f` the deduplicated frames backing all members, ascending
    /// by full `FrameId` — the unit of en-masse migration (paper §4.4:
    /// "kernel objects pointed to by a knode subtree are migrated"
    /// together). The order is report-visible, so it is derived rather
    /// than maintained per touch, but cached: frames added since the
    /// last walk are sorted on their own and merged into the cached
    /// view, so a walk over a knode that gained k frames costs
    /// O(m + k log k), and one over a quiescent knode sorts nothing.
    /// The work done is tallied in `work`. The slice is borrowed from
    /// the cache, so `f` must not re-enter member mutation (the
    /// migration walks only touch the memory system).
    pub fn with_member_frames<R>(&self, work: &ViewWork, f: impl FnOnce(&[FrameId]) -> R) -> R {
        self.view.borrow_mut().refresh(&self.frames, work);
        f(&self.view.borrow().sorted)
    }

    /// [`Knode::with_member_frames`] that also hands `f` the demotion
    /// due stamps, one per frame: the earliest virtual time (ns) at which
    /// that frame could be a member-demotion candidate, 0 for "probe
    /// it", `u64::MAX` for "never again under this key". With `key` =
    /// `Some((older_than, promotion epoch))`, stamps derived under any
    /// other key are zeroed first; `None` leaves them as they are (a
    /// promotion walk zeroing the entries it moves).
    pub(crate) fn with_member_dues<R>(
        &self,
        work: &ViewWork,
        key: Option<(Nanos, u64)>,
        f: impl FnOnce(&[FrameId], &mut [u64]) -> R,
    ) -> R {
        let mut view = self.view.borrow_mut();
        view.refresh(&self.frames, work);
        if key.is_some() && view.dues_key != key {
            view.dues.fill(0);
            view.dues_key = key;
        }
        let view = &mut *view;
        f(&view.sorted, &mut view.dues)
    }

    /// Drops both migration-walk memoizations: the settled en-masse
    /// outcome and the demotion due stamps. Called when member frames
    /// gain fast-tier residency outside a demotion walk's own
    /// bookkeeping.
    pub(crate) fn clear_walk_caches(&self) {
        self.enmasse_cache.set(None);
        self.view.borrow_mut().dues_key = None;
    }

    /// Drops the settled en-masse outcome only. Member-set changes and
    /// promotion walks call this: the due stamps stay exact through
    /// both (new frames enter at 0, a promotion walk zeroes what it
    /// moves).
    pub(crate) fn clear_enmasse_cache(&self) {
        self.enmasse_cache.set(None);
    }

    /// The memoized settled en-masse walk outcome, if any.
    pub(crate) fn enmasse_cache(&self) -> Option<(TierId, u64, u64)> {
        self.enmasse_cache.get()
    }

    /// Memoizes a settled en-masse walk toward `to`: nothing movable
    /// remains and a repeat walk charges exactly `pingpong_skips`.
    pub(crate) fn set_enmasse_cache(&self, to: TierId, pingpong_skips: u64, epoch: u64) {
        self.enmasse_cache.set(Some((to, pingpong_skips, epoch)));
    }

    /// Number of distinct frames backing members.
    pub fn member_frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Deduplicated frames backing all members, collected ascending
    /// (an uncounted [`Knode::with_member_frames`]).
    pub fn member_frames(&self) -> Vec<FrameId> {
        self.with_member_frames(&ViewWork::default(), <[FrameId]>::to_vec)
    }
}

/// Deterministic work probes for member-view upkeep, tallied by
/// [`Knode::with_member_frames`]. Diagnostic only, like
/// [`crate::Kmap::knodes_examined`]: nothing report-visible reads them.
#[derive(Debug, Default)]
pub struct ViewWork {
    sorted: Cell<u64>,
    merged: Cell<u64>,
    departed: Cell<u64>,
}

impl ViewWork {
    /// Frames passed through a full sort of a knode's member view.
    pub fn frames_sorted(&self) -> u64 {
        self.sorted.get()
    }

    /// Newly tracked frames merged into a cached member view.
    pub fn adds_merged(&self) -> u64 {
        self.merged.get()
    }

    /// Frames dropped from a cached member view through its list of
    /// departed frames.
    pub fn departed(&self) -> u64 {
        self.departed.get()
    }
}

/// A knode's ordered member view plus the delta since it was last
/// brought up to date. Invariant while `built`: `sorted` (ascending,
/// duplicate-free) together with `pending` covers every tracked frame,
/// `dues` runs parallel to `sorted`, and neither `pending` nor
/// `departed` is longer than the frame count. `sorted` may still hold
/// frames that left the set, but only ones listed in `departed`.
#[derive(Debug, Clone, Default)]
struct MemberView {
    sorted: Vec<FrameId>,
    /// Demotion due stamp per `sorted` entry (see
    /// [`Knode::with_member_dues`]). Entries enter at 0.
    dues: Vec<u64>,
    /// `(older_than, promotion epoch)` the stamps were derived under;
    /// `None` once something invalidated them.
    dues_key: Option<(Nanos, u64)>,
    /// Frames newly tracked since the last refresh, unordered.
    pending: Vec<FrameId>,
    /// Frames that left the set since the last refresh, unordered (a
    /// frame that left and came back is listed too).
    departed: Vec<FrameId>,
    /// Whether `sorted` + `pending` is a usable base. Unset for a view
    /// never walked (so a knode that is never walked records no adds)
    /// and after an overflow; the next refresh re-collects in full.
    built: bool,
}

impl MemberView {
    /// Records a newly tracked frame; `len` is the frame count after
    /// the add. Once the adds catch up with the frame count, a full
    /// re-collect is no dearer than a merge, so the delta is dropped.
    fn note_added(&mut self, frame: FrameId, len: usize) {
        if self.built {
            self.pending.push(frame);
            if self.pending.len() >= len {
                self.invalidate();
            }
        }
    }

    /// Records that `frame` left the set; `len` is the frame count
    /// after the removal.
    fn note_removed(&mut self, frame: FrameId, len: usize) {
        if self.built {
            self.departed.push(frame);
            if self.pending.len() > len || self.departed.len() > len {
                self.invalidate();
            }
        }
    }

    fn invalidate(&mut self) {
        self.built = false;
        self.pending = Vec::new();
        self.departed = Vec::new();
    }

    /// Brings `sorted` (and `dues`) up to date with `frames`.
    fn refresh(&mut self, frames: &FrameRefs, work: &ViewWork) {
        if !self.built {
            frames.collect_sorted(&mut self.sorted);
            self.dues.clear();
            self.dues.resize(self.sorted.len(), 0);
            work.sorted
                .set(work.sorted.get() + self.sorted.len() as u64);
            self.built = true;
            return;
        }
        if !self.departed.is_empty() {
            // A frame that left and came back is still referenced; one
            // added then dropped before this walk sits in `pending`
            // with no references.
            self.departed.sort_unstable();
            self.departed.dedup();
            self.departed.retain(|&f| frames.count(f) == 0);
            drop_departed(&mut self.sorted, &mut self.dues, &self.departed);
            self.pending.retain(|&f| frames.count(f) > 0);
            work.departed
                .set(work.departed.get() + self.departed.len() as u64);
            self.departed.clear();
        }
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_unstable();
        self.pending.dedup();
        merge_into(&mut self.sorted, &mut self.dues, &self.pending);
        work.merged
            .set(work.merged.get() + self.pending.len() as u64);
        self.pending.clear();
    }
}

/// Removes the ascending `gone` frames from ascending `sorted`, and the
/// matching `dues` entries, in one compaction pass starting at the
/// first frame that can match.
fn drop_departed(sorted: &mut Vec<FrameId>, dues: &mut Vec<u64>, gone: &[FrameId]) {
    let Some(&first) = gone.first() else {
        return;
    };
    let start = sorted.partition_point(|&f| f < first);
    let mut w = start;
    let mut g = 0;
    for r in start..sorted.len() {
        let f = sorted[r];
        while g < gone.len() && gone[g] < f {
            g += 1;
        }
        if gone.get(g) == Some(&f) {
            continue;
        }
        sorted[w] = f;
        dues[w] = dues[r];
        w += 1;
    }
    sorted.truncate(w);
    dues.truncate(w);
}

/// Merges ascending `adds` into ascending `dst` in place, back to
/// front, keeping one copy of any frame present in both; `dues` moves
/// with `dst`. Every added frame's stamp starts at 0 ("probe it"), a
/// re-added one's included: while it was away it may have changed tier
/// unseen by this knode's invalidations.
fn merge_into(dst: &mut Vec<FrameId>, dues: &mut Vec<u64>, adds: &[FrameId]) {
    let mut i = dst.len();
    let mut j = adds.len();
    dst.reserve(j);
    dues.reserve(j);
    dst.resize(i + j, FrameId(0));
    dues.resize(i + j, 0);
    // Writes land at `w >= i`, so unread `dst[..i]` is never clobbered.
    let mut w = i + j;
    while j > 0 {
        w -= 1;
        let add = adds[j - 1];
        if i > 0 && dst[i - 1] > add {
            dst[w] = dst[i - 1];
            dues[w] = dues[i - 1];
            i -= 1;
        } else {
            if i > 0 && dst[i - 1] == add {
                i -= 1;
            }
            dst[w] = add;
            dues[w] = 0;
            j -= 1;
        }
    }
    // Each shared frame left one slot unused between the untouched
    // prefix and the merged tail.
    dst.drain(i..w);
    dues.drain(i..w);
}

#[cfg(feature = "ksan")]
impl Knode {
    /// The epoch this knode's age was last synchronized at (audited
    /// against the kmap's global epoch, which must never lag it).
    pub(crate) fn synced_epoch(&self) -> u64 {
        self.synced_epoch
    }

    /// Recomputes the frame refcounts from both member tables and
    /// cross-checks the incrementally maintained frame set, then audits
    /// each dense table's internal slot bookkeeping (live counter vs
    /// occupied slots, probe-chain reachability). Observation only.
    pub(crate) fn ksan_audit(&self, out: &mut Vec<kloc_mem::ksan::Violation>) {
        use std::collections::BTreeMap;

        use kloc_mem::ksan::Violation;
        let mut tally: BTreeMap<FrameId, u32> = BTreeMap::new();
        let mut count = |_: ObjectId, frame: FrameId| {
            *tally.entry(frame).or_insert(0) += 1;
        };
        self.cache.for_each(&mut count);
        self.slab.for_each(&mut count);
        let mut refs: BTreeMap<FrameId, u32> = BTreeMap::new();
        self.frames.for_each(|frame, rc| {
            refs.insert(frame, rc);
        });
        if tally != refs {
            out.push(Violation::new(
                "Knode.frames <-> Knode member tables",
                format!("{}", self.inode),
                "frame refcounts match the members that reference them",
                format!("{tally:?}"),
                format!("{refs:?}"),
            ));
        }
        let view = self.view.borrow();
        if view.built {
            self.ksan_audit_view(&view, out);
        }
        for (label, check) in [
            ("rbtree-cache", self.cache.ksan_check()),
            ("rbtree-slab", self.slab.ksan_check()),
            ("frame refs", self.frames.ksan_check()),
        ] {
            if let Err(err) = check {
                out.push(Violation::new(
                    "Knode dense table slots <-> live counter",
                    format!("{} {label}", self.inode),
                    "stored ids are probe-reachable and counted exactly once",
                    "consistent slot array".to_owned(),
                    err,
                ));
            }
        }
    }

    /// Audits a built member view: it must cover every tracked frame,
    /// in the cache or pending (a lost add would drop that frame from
    /// en-masse migration), with no more adds pending than frames
    /// tracked; once up to date it must equal a fresh collect.
    fn ksan_audit_view(&self, view: &MemberView, out: &mut Vec<kloc_mem::ksan::Violation>) {
        use kloc_mem::ksan::Violation;
        let mut fresh = Vec::new();
        self.frames.collect_sorted(&mut fresh);
        let mut pending = view.pending.clone();
        pending.sort_unstable();
        let lost: Vec<FrameId> = fresh
            .iter()
            .copied()
            .filter(|f| view.sorted.binary_search(f).is_err() && pending.binary_search(f).is_err())
            .collect();
        if !lost.is_empty() {
            out.push(Violation::new(
                "Knode.frames <-> Knode.sorted_frames cache + pending adds",
                format!("{}", self.inode),
                "every tracked frame is in the cached view or pending",
                "no frame missing".to_owned(),
                format!("missing {lost:?}"),
            ));
        }
        if view.pending.len() > self.frames.len() {
            out.push(Violation::new(
                "Knode pending adds <-> Knode.frames",
                format!("{}", self.inode),
                "no more adds pending than frames tracked",
                format!("<= {}", self.frames.len()),
                format!("{}", view.pending.len()),
            ));
        }
        if view.pending.is_empty() && view.departed.is_empty() && view.sorted != fresh {
            out.push(Violation::new(
                "Knode.sorted_frames cache <-> Knode.frames",
                format!("{}", self.inode),
                "an up-to-date cache matches a fresh collect",
                format!("{fresh:?}"),
                format!("{:?}", view.sorted),
            ));
        }
    }

    /// Corruption hook for sanitizer self-tests: stamps the knode's
    /// synced epoch into the future, ahead of the kmap's global epoch.
    #[doc(hidden)]
    pub fn ksan_force_synced_epoch(&mut self, epoch: u64) {
        self.synced_epoch = epoch;
    }

    /// Corruption hook for sanitizer self-tests: injects a phantom
    /// frame reference, desyncing the frame set from the member tables.
    #[doc(hidden)]
    pub fn ksan_break_knode_members(&mut self) {
        self.frames.ksan_break_phantom_ref(FrameId(0xDEAD));
    }

    /// Corruption hook for sanitizer self-tests: skews the cache
    /// table's live counter against its occupied slots.
    #[doc(hidden)]
    pub fn ksan_break_member_slots(&mut self) {
        self.cache.ksan_break_live_count();
    }

    /// Corruption hook for sanitizer self-tests: plants a bogus frame
    /// in the sorted-frame cache while leaving it marked up to date.
    #[doc(hidden)]
    pub fn ksan_break_frame_cache(&mut self) {
        let view = self.view.get_mut();
        view.sorted.push(FrameId(0xBAD));
        view.dues.push(0);
        view.pending.clear();
        view.departed.clear();
        view.built = true;
    }

    /// Corruption hook for sanitizer self-tests: forgets the most
    /// recent pending add, so the view no longer covers that frame.
    #[doc(hidden)]
    pub fn ksan_break_drop_pending_add(&mut self) {
        self.view.get_mut().pending.pop();
    }

    /// Audits the demotion due stamps of a built view against the frame
    /// table: `dues` runs parallel to `sorted`, the departed list is
    /// bounded by the frame count, and — when the stamps were derived
    /// under the current `epoch` — no stamp claims a frame cannot be a
    /// candidate before it really could: a finite stamp is at most
    /// `last_access + older_than`, and `u64::MAX` marks only a frame
    /// that is freed, off the fast tier, pinned, or at `max_migrations`.
    /// Frames that left the set or await a merge (their stamp restarts
    /// at 0) are skipped. Observation only.
    pub(crate) fn ksan_audit_dues(
        &self,
        epoch: u64,
        max_migrations: u8,
        mem: &kloc_mem::MemorySystem,
        out: &mut Vec<kloc_mem::ksan::Violation>,
    ) {
        use kloc_mem::ksan::Violation;
        let view = self.view.borrow();
        if !view.built {
            return;
        }
        if view.dues.len() != view.sorted.len() {
            out.push(Violation::new(
                "Knode due stamps <-> Knode.sorted_frames cache",
                format!("{}", self.inode),
                "one due stamp per cached frame",
                format!("{}", view.sorted.len()),
                format!("{}", view.dues.len()),
            ));
            return;
        }
        if view.departed.len() > self.frames.len() {
            out.push(Violation::new(
                "Knode departed frames <-> Knode.frames",
                format!("{}", self.inode),
                "no more departures pending than frames tracked",
                format!("<= {}", self.frames.len()),
                format!("{}", view.departed.len()),
            ));
        }
        let Some((older_than, key_epoch)) = view.dues_key else {
            return;
        };
        if key_epoch != epoch {
            return;
        }
        let mut pending = view.pending.clone();
        pending.sort_unstable();
        for (&frame, &due) in view.sorted.iter().zip(&view.dues) {
            if due == 0 || self.frames.count(frame) == 0 || pending.binary_search(&frame).is_ok() {
                continue;
            }
            let Some(meta) = mem.frame_meta(frame) else {
                continue;
            };
            let settled =
                meta.tier != TierId::FAST || meta.pinned || meta.migrations >= max_migrations;
            let bound = meta
                .last_access
                .as_nanos()
                .saturating_add(older_than.as_nanos());
            let wrong = if due == u64::MAX {
                !settled
            } else {
                due > bound
            };
            if wrong {
                out.push(Violation::new(
                    "Knode due stamps <-> FrameTable",
                    format!("{} {frame}", self.inode),
                    "a due stamp never postpones a possible demotion candidate",
                    if due == u64::MAX {
                        "u64::MAX only on a freed, slow, pinned or maxed frame".to_owned()
                    } else {
                        format!("<= last_access + older_than = {bound}")
                    },
                    format!(
                        "due {due} on {:?} frame (pinned {}, migrations {}, last_access {})",
                        meta.tier, meta.pinned, meta.migrations, meta.last_access
                    ),
                ));
            }
        }
    }

    /// Corruption hook for sanitizer self-tests: stamps `frame` as
    /// never demotable under the view's current key.
    #[doc(hidden)]
    pub fn ksan_break_due_stamp(&mut self, frame: FrameId) {
        let view = self.view.get_mut();
        if let Ok(i) = view.sorted.binary_search(&frame) {
            view.dues[i] = u64::MAX;
        }
    }

    /// Test-only wrapper over the crate-private inuse transition so
    /// sanitizer self-tests can stage inactive knodes from outside the
    /// crate (via `Kmap::with_knode_mut`, which repairs the activation
    /// indexes around the change).
    #[doc(hidden)]
    pub fn ksan_set_inuse_at(&mut self, inuse: bool, epoch: u64) {
        self.set_inuse_at(inuse, epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knode() -> Knode {
        Knode::new(InodeId(1), Nanos::ZERO)
    }

    #[test]
    fn members_route_by_backing() {
        let mut k = knode();
        let t1 = k.add_obj(ObjectId(1), KernelObjectType::PageCache, FrameId(10));
        let t2 = k.add_obj(ObjectId(2), KernelObjectType::Dentry, FrameId(11));
        assert_eq!(t1, MemberTree::Cache);
        assert_eq!(t2, MemberTree::Slab);
        assert_eq!(k.cache_members().len(), 1);
        assert_eq!(k.slab_members().len(), 1);
        assert_eq!(k.member_count(), 2);
    }

    #[test]
    fn remove_from_either_tree() {
        let mut k = knode();
        k.add_obj(ObjectId(1), KernelObjectType::PageCache, FrameId(10));
        k.add_obj(ObjectId(2), KernelObjectType::Extent, FrameId(11));
        assert!(k.remove_obj(ObjectId(1)));
        assert!(k.remove_obj(ObjectId(2)));
        assert!(!k.remove_obj(ObjectId(3)));
        assert!(k.is_empty());
        assert_eq!(k.member_frame_count(), 0);
    }

    #[test]
    fn member_frames_deduplicate_shared_slab_pages() {
        let mut k = knode();
        // Two dentries packed on the same slab frame.
        k.add_obj(ObjectId(1), KernelObjectType::Dentry, FrameId(7));
        k.add_obj(ObjectId(2), KernelObjectType::Dentry, FrameId(7));
        k.add_obj(ObjectId(3), KernelObjectType::PageCache, FrameId(8));
        assert_eq!(k.member_frames(), vec![FrameId(7), FrameId(8)]);
        assert_eq!(k.member_frame_count(), 2);
        // Removing one sharer keeps the frame; removing both drops it.
        assert!(k.remove_obj(ObjectId(1)));
        assert_eq!(k.member_frames(), vec![FrameId(7), FrameId(8)]);
        assert!(k.remove_obj(ObjectId(2)));
        assert_eq!(k.member_frames(), vec![FrameId(8)]);
    }

    #[test]
    fn reinserted_object_moves_its_frame_ref() {
        let mut k = knode();
        k.add_obj(ObjectId(1), KernelObjectType::PageCache, FrameId(7));
        // Same object re-added on a different frame: old ref released.
        k.add_obj(ObjectId(1), KernelObjectType::PageCache, FrameId(9));
        assert_eq!(k.member_frames(), vec![FrameId(9)]);
        assert_eq!(k.member_count(), 1);
    }

    #[test]
    fn member_views_sort_by_full_id() {
        let mut k = knode();
        // Insertion order deliberately disagrees with id order, and two
        // frames share a slot (low 32 bits) across generations.
        k.add_obj(ObjectId(9), KernelObjectType::PageCache, FrameId(5));
        k.add_obj(
            ObjectId(2),
            KernelObjectType::PageCache,
            FrameId((1 << 32) | 4),
        );
        k.add_obj(ObjectId(5), KernelObjectType::PageCache, FrameId(4));
        let ids: Vec<u64> = k.cache_members().iter().map(|(o, _)| o.0).collect();
        assert_eq!(ids, vec![2, 5, 9]);
        assert_eq!(
            k.member_frames(),
            vec![FrameId(4), FrameId(5), FrameId((1 << 32) | 4)]
        );
    }

    #[test]
    fn age_accrues_only_while_inactive() {
        let mut k = knode();
        assert_eq!(k.age_at(5), 0, "active knodes do not age");
        k.set_inuse_at(false, 5);
        assert_eq!(k.age_at(5), 0);
        assert_eq!(k.age_at(9), 4, "one unit per epoch inactive");
        k.touch_at(CpuId(3), Nanos::from_micros(5), 9);
        assert_eq!(k.age_at(9), 0, "touch resets the clock");
        assert_eq!(k.last_cpu(), CpuId(3));
        assert_eq!(k.last_active(), Nanos::from_micros(5));
    }

    #[test]
    fn reactivation_freezes_age() {
        let mut k = knode();
        k.set_inuse_at(false, 0);
        assert_eq!(k.age_at(7), 7);
        k.set_inuse_at(true, 7);
        assert_eq!(k.age_at(20), 7, "age frozen while active");
        // Repeated close must not restart the inactivity clock.
        k.set_inuse_at(false, 20);
        k.set_inuse_at(false, 25);
        assert_eq!(k.age_at(30), 17);
        assert_eq!(k.inactive_stamp(), 13);
    }

    #[test]
    fn inuse_toggles() {
        let mut k = knode();
        assert!(k.inuse());
        k.set_inuse_at(false, 0);
        assert!(!k.inuse());
    }

    #[test]
    fn age_saturates() {
        let mut k = knode();
        k.set_inuse_at(false, 0);
        assert_eq!(k.age_at(u64::from(u32::MAX) + 100), u32::MAX);
    }
}
