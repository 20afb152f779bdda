//! # Guillotine free-list allocator over the (quota × SM) plane
//!
//! The fleet-scale replacement for [`GpuRects`](super::GpuRects) on the
//! placement hot path. Where the maximal-rects reference implementation
//! keeps an *overlapping* free list (O(free²) prune after every split and
//! a full `restructure()` rebuild on release), this allocator keeps the
//! classic guillotine representation:
//!
//! * the free set is **disjoint** and tiles exactly the complement of the
//!   placements, so `sum(free) + used == capacity` holds as an identity;
//! * free pieces live in a dense slab of generation-stamped slots
//!   (the guillotiere `AllocIndex` idiom — no `BTreeMap`, per the
//!   `no-btreemap-hot-path` lint), indexed by **size-bucketed free
//!   lists** so a fit query scans only pieces large enough to matter;
//! * `release` performs **neighbor merges** along full shared edges
//!   instead of rebuilding the free list.
//!
//! Guillotine splits under-approximate feasibility (a demand can fit a
//! maximal free rectangle yet no single disjoint piece: the classic
//! L-shape). The allocator therefore backs the fast path with an **exact
//! fallback**: when no piece fits, it recomputes the ground-truth maximal
//! free rectangles from the placement set and carves the demand out of
//! the disjoint free set at the exact position. Accepts are thus
//! *equivalent to geometric feasibility* — the same accept/reject
//! boundary as an ideal allocator — while the common case stays a
//! bucketed slot scan. Fallback counts are exported so benches can verify
//! the fast path actually absorbs the churn.

use fastg_cluster::PodId;
use fastg_des::sanitizer;
use fastg_des::snap::{snap_enum, snap_struct, SnapError};

use super::rects::{at_least_one, maximal_free_rects, FitRule, Rect};

/// Number of size-class buckets for free pieces.
const BUCKET_COUNT: usize = 4;

/// Size class of a free piece by area: `<128`, `<1024`, `<4096`, `≥4096`.
/// Monotone in area, so a demand of area `a` can only be satisfied by a
/// single piece in buckets `bucket_of(a)..`.
#[inline]
fn bucket_of(area: u64) -> usize {
    if area < 128 {
        0
    } else if area < 1024 {
        1
    } else if area < 4096 {
        2
    } else {
        3
    }
}

#[inline]
fn ix(index: u32) -> usize {
    index as usize // fastg-lint: allow(no-lossy-cast)
}

/// Generation-stamped handle to a live placement. Stale handles (the slot
/// was freed, merged or reused since) are detected and rejected — the
/// double-free guard the `alloc-handle-generation` sanitizer rule checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AllocId {
    index: u32,
    generation: u32,
}

impl AllocId {
    /// Dense slab index of the slot behind this handle.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Generation the slot carried when the handle was issued.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

/// What a slab slot currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Unused slot awaiting reuse via the vacant list.
    Vacant,
    /// A free piece; `bucket_pos` is its position inside
    /// `buckets[bucket_of(rect.area())]` for O(1) removal.
    Free { bucket_pos: usize },
    /// A placement bound to a pod.
    Used { pod: PodId },
}

#[derive(Debug, Clone)]
struct Slot {
    rect: Rect,
    generation: u32,
    state: SlotState,
}

/// Guillotine allocator over one GPU's (quota × SM) plane.
///
/// ```
/// use fastgshare::scheduler::GuillotineAlloc;
/// use fastg_cluster::PodId;
///
/// let mut gpu = GuillotineAlloc::standard(); // 100 % quota × 100 % SMs
/// let rect = gpu.place(PodId(0), 40, 12).unwrap();
/// assert_eq!((rect.x, rect.y), (0, 0)); // bottom-left placement
/// assert_eq!(gpu.free_area(), 10_000 - 480);
/// assert_eq!(gpu.release(PodId(0)), Some(rect));
/// assert_eq!(gpu.free_area(), 10_000);
/// assert_eq!(gpu.largest_free_slot_area(), 10_000); // merged back whole
/// ```
#[derive(Debug, Clone)]
pub struct GuillotineAlloc {
    width: u32,
    height: u32,
    /// Dense slab: free pieces and placements share one index space.
    slots: Vec<Slot>,
    /// Indices of `Vacant` slots, reused LIFO.
    vacant: Vec<u32>,
    /// Free-piece indices by size class (`bucket_of`).
    buckets: [Vec<u32>; BUCKET_COUNT],
    /// `(pod, slot)` bindings, sorted by pod id.
    pods: Vec<(PodId, u32)>,
    used_area: u64,
    fit_rule: FitRule,
    merges: u64,
    exact_fallbacks: u64,
    /// Reused scan buffer for the release-time merge fixpoint, so
    /// steady-state churn never allocates.
    merge_scratch: Vec<u32>,
}

impl GuillotineAlloc {
    /// A fresh GPU plane using the paper's best-area-fit rule.
    pub fn new(width: u32, height: u32) -> Self {
        Self::with_rule(width, height, FitRule::BestAreaFit)
    }

    /// A fresh GPU plane with an explicit fit rule.
    pub fn with_rule(width: u32, height: u32, fit_rule: FitRule) -> Self {
        let width = at_least_one(width, "GPU plane width");
        let height = at_least_one(height, "GPU plane height");
        let mut alloc = GuillotineAlloc {
            width,
            height,
            slots: Vec::new(),
            vacant: Vec::new(),
            buckets: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            pods: Vec::new(),
            used_area: 0,
            fit_rule,
            merges: 0,
            exact_fallbacks: 0,
            merge_scratch: Vec::new(),
        };
        alloc.insert_free(Rect::new(0, 0, width, height));
        alloc
    }

    /// The standard paper-sized 100 × 100 percent plane.
    pub fn standard() -> Self {
        Self::new(100, 100)
    }

    /// The configured fit rule.
    pub fn fit_rule(&self) -> FitRule {
        self.fit_rule
    }

    /// Total capacity ("secondCores").
    pub fn capacity(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    /// Area currently bound to pods (O(1): a running counter).
    pub fn used_area(&self) -> u64 {
        self.used_area
    }

    /// Unbound area (O(1): the free set is disjoint by construction).
    pub fn free_area(&self) -> u64 {
        self.capacity() - self.used_area
    }

    /// The largest single *disjoint* free piece. A demand of at most this
    /// area may be placeable on the fast path; larger demands need the
    /// exact fallback. (Contrast [`GpuRects::largest_free_area`]
    /// (super::GpuRects::largest_free_area), which reports the largest
    /// *maximal* rectangle.)
    pub fn largest_free_slot_area(&self) -> u64 {
        // Bucket classes are ordered by area range, so the top non-empty
        // bucket holds the global maximum.
        for bucket in self.buckets.iter().rev() {
            if let Some(max) = bucket
                .iter()
                .map(|&i| self.slots[ix(i)].rect.area())
                .max()
            {
                return max;
            }
        }
        0
    }

    /// Fragmentation in `[0, 1]` against the *exact* maximal-rectangle
    /// geometry (report-time metric; recomputes ground truth, not the
    /// disjoint approximation). Zero when empty or perfectly consolidated.
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_area();
        if self.capacity() == 0 || free == 0 {
            return 0.0;
        }
        let placements: Vec<Rect> = self.pods.iter().map(|&(_, i)| self.slots[ix(i)].rect).collect();
        let largest = maximal_free_rects(self.width, self.height, &placements)
            .iter()
            .map(Rect::area)
            .max()
            .unwrap_or(0);
        1.0 - largest as f64 / free as f64
    }

    /// The current disjoint free pieces (unordered diagnostic snapshot).
    pub fn free_rects(&self) -> Vec<Rect> {
        let mut rects: Vec<Rect> = self
            .buckets
            .iter()
            .flatten()
            .map(|&i| self.slots[ix(i)].rect)
            .collect();
        rects.sort_by_key(|r| (r.y, r.x, r.w, r.h));
        rects
    }

    /// Number of disjoint free pieces currently tracked.
    pub fn free_piece_count(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// The rectangle bound to `pod`, if any.
    pub fn placement_of(&self, pod: PodId) -> Option<Rect> {
        self.pods
            .binary_search_by_key(&pod, |&(p, _)| p)
            .ok()
            .map(|at| self.slots[ix(self.pods[at].1)].rect)
    }

    /// Every `(pod, rectangle)` binding, in ascending pod order.
    pub fn placements(&self) -> impl Iterator<Item = (PodId, Rect)> + '_ {
        self.pods
            .iter()
            .map(|&(p, i)| (p, self.slots[ix(i)].rect))
    }

    /// Pods currently bound.
    pub fn pod_count(&self) -> usize {
        self.pods.len()
    }

    /// Generation-stamped handle to `pod`'s live placement.
    pub fn handle_of(&self, pod: PodId) -> Option<AllocId> {
        self.pods
            .binary_search_by_key(&pod, |&(p, _)| p)
            .ok()
            .map(|at| {
                let index = self.pods[at].1;
                AllocId {
                    index,
                    generation: self.slots[ix(index)].generation,
                }
            })
    }

    /// Neighbor merges performed by [`Self::release`].
    pub fn merge_count(&self) -> u64 {
        self.merges
    }

    /// Placements that needed the exact maximal-rects fallback because no
    /// single disjoint piece fit. Benches assert this stays a small
    /// fraction of placements — the fast path must absorb the churn.
    pub fn exact_fallback_count(&self) -> u64 {
        self.exact_fallbacks
    }

    // -- slab plumbing ----------------------------------------------------

    /// Claims a slot (reusing a vacant one if available) and bumps its
    /// generation so stale handles cannot alias the new occupant.
    fn claim_slot(&mut self, rect: Rect, state: SlotState) -> u32 {
        if let Some(index) = self.vacant.pop() {
            let slot = &mut self.slots[ix(index)];
            slot.rect = rect;
            slot.generation = slot.generation.wrapping_add(1);
            slot.state = state;
            return index;
        }
        debug_assert!(self.slots.len() < u32::MAX as usize); // fastg-lint: allow(no-lossy-cast)
        let index = self.slots.len() as u32; // fastg-lint: allow(no-lossy-cast)
        self.slots.push(Slot {
            rect,
            generation: 0,
            state,
        });
        index
    }

    /// Registers `rect` as a free piece in its size bucket. Zero-area
    /// rectangles are dropped.
    fn insert_free(&mut self, rect: Rect) {
        if rect.area() == 0 {
            return;
        }
        let bucket = bucket_of(rect.area());
        let bucket_pos = self.buckets[bucket].len();
        let index = self.claim_slot(rect, SlotState::Free { bucket_pos });
        self.buckets[bucket].push(index);
    }

    /// Unlinks free slot `index` from its bucket (O(1) swap-remove with
    /// `bucket_pos` fixup) and marks it vacant for reuse.
    fn remove_free(&mut self, index: u32) -> Rect {
        let (rect, bucket_pos) = {
            let slot = &self.slots[ix(index)];
            let SlotState::Free { bucket_pos } = slot.state else {
                debug_assert!(false, "remove_free on a non-free slot");
                return Rect::new(0, 0, 0, 0);
            };
            (slot.rect, bucket_pos)
        };
        let bucket = bucket_of(rect.area());
        self.buckets[bucket].swap_remove(bucket_pos);
        if let Some(&moved) = self.buckets[bucket].get(bucket_pos) {
            self.slots[ix(moved)].state = SlotState::Free { bucket_pos };
        }
        let slot = &mut self.slots[ix(index)];
        slot.state = SlotState::Vacant;
        slot.generation = slot.generation.wrapping_add(1);
        self.vacant.push(index);
        rect
    }

    // -- fit queries ------------------------------------------------------

    /// Fast-path fit: the best *single disjoint piece* for a `w × h`
    /// demand under the configured rule, ties broken bottom-left-most.
    /// Returns the piece's slot index, rectangle and area slack.
    fn best_fit_slot(&self, w: u32, h: u32) -> Option<(u32, Rect, u64)> {
        let demand = u64::from(w) * u64::from(h);
        let key = |r: &Rect| -> (u64, u32, u32) {
            match self.fit_rule {
                FitRule::BestAreaFit => (r.area() - demand, r.y, r.x),
                FitRule::BestShortSideFit => {
                    let short = u64::from((r.w - w).min(r.h - h));
                    (short, r.y, r.x)
                }
                FitRule::BottomLeft => (0, r.y, r.x),
            }
        };
        // Distinct disjoint rectangles cannot share a bottom-left corner,
        // so `(rule key, y, x)` is a total order: the minimum is unique
        // and scan order cannot leak into the result.
        self.buckets[bucket_of(demand)..]
            .iter()
            .flatten()
            .map(|&i| (i, self.slots[ix(i)].rect))
            .filter(|(_, r)| r.fits(w, h))
            .min_by_key(|(_, r)| key(r))
            .map(|(i, r)| (i, r, r.area() - demand))
    }

    /// Fast-path fit query (public, mirrors [`GpuRects::best_fit`]
    /// (super::GpuRects::best_fit) but over disjoint pieces only).
    pub fn best_fit(&self, w: u32, h: u32) -> Option<(Rect, u64)> {
        self.best_fit_slot(w, h).map(|(_, r, slack)| (r, slack))
    }

    /// Exact feasibility: the best *maximal* free rectangle for a `w × h`
    /// demand, recomputed from the placement set. This is the ground
    /// truth the fast path under-approximates; `place` falls back to it
    /// so accept ⟺ geometrically feasible.
    pub fn feasible_exact(&self, w: u32, h: u32) -> Option<(Rect, u64)> {
        let demand = u64::from(w) * u64::from(h);
        if self.free_area() < demand {
            return None;
        }
        let placements: Vec<Rect> = self.pods.iter().map(|&(_, i)| self.slots[ix(i)].rect).collect();
        let maximal = maximal_free_rects(self.width, self.height, &placements);
        // Distinct maximal rectangles CAN share an origin and an area
        // (an L-shape's 20×100 and 100×20 arms both sit at (0,0)), so the
        // tie-break key carries the width to stay a total order.
        let key = |r: &Rect| -> (u64, u32, u32, u32) {
            match self.fit_rule {
                FitRule::BestAreaFit => (r.area() - demand, r.y, r.x, r.w),
                FitRule::BestShortSideFit => {
                    let short = u64::from((r.w - w).min(r.h - h));
                    (short, r.y, r.x, r.w)
                }
                FitRule::BottomLeft => (0, r.y, r.x, r.w),
            }
        };
        maximal
            .iter()
            .filter(|r| r.fits(w, h))
            .min_by_key(|r| key(r))
            .map(|r| (*r, r.area() - demand))
    }

    // -- mutation ---------------------------------------------------------

    /// Subtracts `f` from the disjoint free set: every overlapping piece
    /// is replaced by its (up to four) disjoint remainders. Total removed
    /// overlap must equal `f.area()` — i.e. `f` lies entirely in free
    /// space; callers guarantee this.
    fn carve(&mut self, f: &Rect) {
        let mut touching: Vec<u32> = self
            .buckets
            .iter()
            .flatten()
            .copied()
            .filter(|&i| self.slots[ix(i)].rect.intersects(f))
            .collect();
        // Pieces are disjoint so the remainders are independent of visit
        // order; sort anyway so the slab/vacant history — and therefore
        // `Clone`-then-replay comparisons — are reproducible.
        touching.sort_unstable();
        let mut covered = 0u64;
        for index in touching {
            let r = self.remove_free(index);
            let ox1 = r.x.max(f.x);
            let ox2 = r.right().min(f.right());
            let oy1 = r.y.max(f.y);
            let oy2 = r.top().min(f.top());
            covered += u64::from(ox2 - ox1) * u64::from(oy2 - oy1);
            // Disjoint subtraction: full-height side strips, then the
            // middle column's below/above strips. Unlike the maximal-rects
            // subdivision these four pieces never overlap.
            if ox1 > r.x {
                self.insert_free(Rect::new(r.x, r.y, ox1 - r.x, r.h));
            }
            if r.right() > ox2 {
                self.insert_free(Rect::new(ox2, r.y, r.right() - ox2, r.h));
            }
            if oy1 > r.y {
                self.insert_free(Rect::new(ox1, r.y, ox2 - ox1, oy1 - r.y));
            }
            if r.top() > oy2 {
                self.insert_free(Rect::new(ox1, oy2, ox2 - ox1, r.top() - oy2));
            }
        }
        debug_assert_eq!(covered, f.area(), "carve target not fully free");
    }

    /// Records `pod` at `rect` in the pod table and the slab.
    fn bind(&mut self, pod: PodId, rect: Rect) -> u32 {
        let index = self.claim_slot(rect, SlotState::Used { pod });
        match self.pods.binary_search_by_key(&pod, |&(p, _)| p) {
            Ok(_) => debug_assert!(false, "pod {pod:?} already placed on this GPU"),
            Err(at) => self.pods.insert(at, (pod, index)),
        }
        self.used_area += rect.area();
        index
    }

    /// Places `pod` (size `w × h`). Fast path: best fitting disjoint
    /// piece, guillotine split (the narrower leftover axis keeps the
    /// full-length strip). Fallback: exact maximal-rects carve. Returns
    /// the bound rectangle, or `None` when geometrically infeasible.
    pub fn place(&mut self, pod: PodId, w: u32, h: u32) -> Option<Rect> {
        debug_assert!(w > 0 && h > 0, "degenerate pod rectangle");
        let w = w.max(1);
        let h = h.max(1);
        if self.pods.binary_search_by_key(&pod, |&(p, _)| p).is_ok() {
            debug_assert!(false, "pod {pod:?} already placed on this GPU");
            return None;
        }
        let placed = if let Some((target, rect, _slack)) = self.best_fit_slot(w, h) {
            self.remove_free(target);
            let f = Rect::new(rect.x, rect.y, w, h);
            // Guillotine split, deterministic axis rule: give the
            // narrower leftover dimension the full-length strip so the
            // larger remainder stays as square as possible.
            if rect.w - w <= rect.h - h {
                // Full-width top strip, short right strip beside the pod.
                self.insert_free(Rect::new(rect.x, f.top(), rect.w, rect.top() - f.top()));
                self.insert_free(Rect::new(f.right(), rect.y, rect.right() - f.right(), h));
            } else {
                // Full-height right strip, short top strip above the pod.
                self.insert_free(Rect::new(f.right(), rect.y, rect.right() - f.right(), rect.h));
                self.insert_free(Rect::new(rect.x, f.top(), w, rect.top() - f.top()));
            }
            self.bind(pod, f);
            f
        } else {
            let (target, _slack) = self.feasible_exact(w, h)?;
            self.exact_fallbacks += 1;
            let f = Rect::new(target.x, target.y, w, h);
            self.carve(&f);
            self.bind(pod, f);
            f
        };
        self.shadow_check();
        Some(placed)
    }

    /// Binds `pod` at an exact, caller-chosen position. Accepts iff the
    /// rectangle lies in bounds and overlaps no current placement — the
    /// same contract as [`GpuRects::place_at`](super::GpuRects::place_at),
    /// the differential-testing hook that keeps both allocators' placement
    /// sets identical under a shared position stream.
    pub fn place_at(&mut self, pod: PodId, rect: Rect) -> bool {
        if rect.w == 0 || rect.h == 0 || self.pods.binary_search_by_key(&pod, |&(p, _)| p).is_ok() {
            return false;
        }
        let bounds = Rect::new(0, 0, self.width, self.height);
        if !bounds.contains(&rect)
            || self
                .pods
                .iter()
                .any(|&(_, i)| self.slots[ix(i)].rect.intersects(&rect))
        {
            return false;
        }
        self.carve(&rect);
        self.bind(pod, rect);
        self.shadow_check();
        true
    }

    /// Releases `pod`, returning its rectangle to the free set and
    /// merging it with edge-aligned free neighbors until no full shared
    /// edge remains — the keep-restructure policy's cheap cousin.
    pub fn release(&mut self, pod: PodId) -> Option<Rect> {
        let at = self.pods.binary_search_by_key(&pod, |&(p, _)| p).ok()?;
        let (_, index) = self.pods.remove(at);
        let rect = self.slots[ix(index)].rect;
        debug_assert!(matches!(self.slots[ix(index)].state, SlotState::Used { .. }));
        self.used_area -= rect.area();
        // Vacate the used slot (generation bump invalidates handles),
        // then grow the freed rectangle by neighbor merges.
        let slot = &mut self.slots[ix(index)];
        slot.state = SlotState::Vacant;
        slot.generation = slot.generation.wrapping_add(1);
        self.vacant.push(index);
        self.insert_free(rect);
        self.merge_fixpoint();
        // Pairwise merging can stall on pinwheel-like tilings (no two
        // pieces share a full edge), so an emptied plane is reset to the
        // single full piece outright — the trivial restructure.
        if self.used_area == 0 && self.free_piece_count() > 1 {
            let stuck: Vec<u32> = self.buckets.iter().flatten().copied().collect();
            for i in stuck {
                self.remove_free(i);
            }
            self.merges += 1;
            self.insert_free(Rect::new(0, 0, self.width, self.height));
        }
        self.shadow_check();
        Some(rect)
    }

    /// Merges full-edge-aligned free pieces until none remain — the
    /// keep-restructure policy's cheap cousin. Partner choice is
    /// deterministic (bottom-left-most merged rectangle first), so the
    /// resulting free set is a pure function of the placement history:
    /// bucket scan order cannot leak into it.
    fn merge_fixpoint(&mut self) {
        let mut indices = std::mem::take(&mut self.merge_scratch);
        loop {
            indices.clear();
            indices.extend(self.buckets.iter().flatten().copied());
            let mut best: Option<(u32, u32, Rect)> = None;
            for (pos, &i) in indices.iter().enumerate() {
                let ri = self.slots[ix(i)].rect;
                for &j in &indices[pos + 1..] {
                    if let Some(m) = merged_rect(&ri, &self.slots[ix(j)].rect) {
                        // Free pieces are disjoint, so a merged union
                        // identifies its pair: (y, x, w, h) is total.
                        let better = best
                            .as_ref()
                            .map_or(true, |&(_, _, b)| (m.y, m.x, m.w, m.h) < (b.y, b.x, b.w, b.h));
                        if better {
                            best = Some((i, j, m));
                        }
                    }
                }
            }
            let Some((i, j, merged)) = best else {
                break;
            };
            self.remove_free(i);
            self.remove_free(j);
            self.merges += 1;
            self.insert_free(merged);
        }
        self.merge_scratch = indices;
    }

    /// Releases the placement behind a generation-stamped handle. Stale
    /// handles (already released, slot since reused) are rejected — and
    /// flagged by the sanitizer's `alloc-handle-generation` rule when
    /// armed — rather than freeing an innocent occupant.
    pub fn release_by_handle(&mut self, id: AllocId) -> Option<Rect> {
        let live = self
            .slots
            .get(ix(id.index))
            .filter(|slot| slot.generation == id.generation);
        let Some(slot) = live else {
            sanitizer::check(false, "alloc-handle-generation", || {
                format!(
                    "stale allocation handle {{index: {}, generation: {}}}: double free \
                     or use-after-release",
                    id.index, id.generation
                )
            });
            return None;
        };
        let SlotState::Used { pod } = slot.state else {
            sanitizer::check(false, "alloc-handle-generation", || {
                format!(
                    "allocation handle {{index: {}, generation: {}}} does not name a \
                     live placement",
                    id.index, id.generation
                )
            });
            return None;
        };
        self.release(pod)
    }

    // -- invariants -------------------------------------------------------

    /// O(n²) structural shadow-check, armed only under `FASTG_SANITIZE=1`
    /// in debug builds (the `fastg_des::sanitizer` contract): free pieces
    /// disjoint from each other and from every placement, and the
    /// disjoint free set plus placements covering the capacity exactly.
    fn shadow_check(&self) {
        if !sanitizer::active() {
            return;
        }
        let free: Vec<Rect> = self.free_rects();
        let used: Vec<Rect> = self.pods.iter().map(|&(_, i)| self.slots[ix(i)].rect).collect();
        let bounds = Rect::new(0, 0, self.width, self.height);
        for (i, a) in free.iter().enumerate() {
            sanitizer::check(bounds.contains(a), "alloc-disjoint", || {
                format!("free piece {a:?} escapes the {bounds:?} plane")
            });
            for b in free.iter().skip(i + 1) {
                sanitizer::check(!a.intersects(b), "alloc-disjoint", || {
                    format!("free pieces overlap: {a:?} vs {b:?}")
                });
            }
            for u in &used {
                sanitizer::check(!a.intersects(u), "alloc-disjoint", || {
                    format!("free piece {a:?} overlaps placement {u:?}")
                });
            }
        }
        let free_sum: u64 = free.iter().map(Rect::area).sum();
        let used_sum: u64 = used.iter().map(Rect::area).sum();
        sanitizer::check(
            free_sum + used_sum == self.capacity() && used_sum == self.used_area,
            "alloc-conservation",
            || {
                format!(
                    "area conservation violated: free {} + used {} != capacity {} \
                     (used counter {})",
                    free_sum,
                    used_sum,
                    self.capacity(),
                    self.used_area
                )
            },
        );
    }
}

snap_enum!(SlotState, "slot state tag" {
    0 => Vacant,
    1 => Free { bucket_pos },
    2 => Used { pod },
});

snap_struct!(Slot {
    rect,
    generation,
    state
});

impl GuillotineAlloc {
    /// Cross-checks a decoded allocator: positive geometry, slot indices
    /// in range, vacant entries naming Vacant slots, exact bucket
    /// back-pointers, sorted pod bindings naming matching Used slots, and
    /// a used-area counter equal to the placement sum.
    fn check_decoded(&self) -> Result<(), SnapError> {
        let Self {
            width,
            height,
            slots,
            vacant,
            buckets,
            pods,
            used_area,
            ..
        } = self;
        if *width == 0 || *height == 0 {
            return Err(SnapError::new("guillotine geometry"));
        }
        let n = slots.len();
        let in_range = |i: &u32| ix(*i) < n;
        if !vacant.iter().all(in_range)
            || !buckets.iter().flatten().all(in_range)
            || !pods.iter().all(|(_, i)| in_range(i))
        {
            return Err(SnapError::new("guillotine slot index"));
        }
        if vacant
            .iter()
            .any(|&i| slots[ix(i)].state != SlotState::Vacant)
        {
            return Err(SnapError::new("guillotine vacant list"));
        }
        for (b, bucket) in buckets.iter().enumerate() {
            for (pos, &i) in bucket.iter().enumerate() {
                let slot = &slots[ix(i)];
                if slot.state != (SlotState::Free { bucket_pos: pos })
                    || bucket_of(slot.rect.area()) != b
                {
                    return Err(SnapError::new("guillotine bucket index"));
                }
            }
        }
        let mut sum = 0u64;
        for (at, &(pod, i)) in pods.iter().enumerate() {
            if at > 0 && pods[at - 1].0 >= pod {
                return Err(SnapError::new("guillotine pod order"));
            }
            let slot = &slots[ix(i)];
            if slot.state != (SlotState::Used { pod }) {
                return Err(SnapError::new("guillotine pod binding"));
            }
            sum = sum
                .checked_add(slot.rect.area())
                .ok_or_else(|| SnapError::new("guillotine area overflow"))?;
        }
        if sum != *used_area {
            return Err(SnapError::new("guillotine used area"));
        }
        Ok(())
    }
}

// Every index structure is captured in its exact in-memory order — the
// vacant LIFO, the bucket lists and the slab itself — because slot-reuse
// order feeds generation stamps and therefore handle validity. Only
// `merge_scratch` (a pure allocation cache) restores empty. Decode
// cross-checks the redundant index structures against the slab.
snap_struct!(
    GuillotineAlloc {
        width,
        height,
        slots,
        vacant,
        buckets,
        pods,
        used_area,
        fit_rule,
        merges,
        exact_fallbacks,
    } skip { merge_scratch },
    check = GuillotineAlloc::check_decoded
);

/// The union of two rectangles sharing a full edge, if they do.
fn merged_rect(a: &Rect, b: &Rect) -> Option<Rect> {
    if a.x == b.x && a.w == b.w {
        if a.top() == b.y {
            return Some(Rect::new(a.x, a.y, a.w, a.h + b.h));
        }
        if b.top() == a.y {
            return Some(Rect::new(a.x, b.y, a.w, a.h + b.h));
        }
    }
    if a.y == b.y && a.h == b.h {
        if a.right() == b.x {
            return Some(Rect::new(a.x, a.y, a.w + b.w, a.h));
        }
        if b.right() == a.x {
            return Some(Rect::new(b.x, a.y, a.w + b.w, a.h));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conservation(g: &GuillotineAlloc) {
        let free_sum: u64 = g.free_rects().iter().map(Rect::area).sum();
        assert_eq!(free_sum + g.used_area(), g.capacity());
        let free = g.free_rects();
        for (i, a) in free.iter().enumerate() {
            for b in free.iter().skip(i + 1) {
                assert!(!a.intersects(b), "free pieces overlap: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn first_placement_splits_bottom_left() {
        let mut g = GuillotineAlloc::standard();
        let r = g.place(PodId(0), 40, 12).unwrap();
        assert_eq!(r, Rect::new(0, 0, 40, 12));
        assert_eq!(g.used_area(), 480);
        assert_eq!(g.free_area(), 10_000 - 480);
        // Narrower leftover axis (60 wide vs 88 tall) keeps the full
        // strip: full-width top + short right beside the pod.
        assert_eq!(g.free_piece_count(), 2);
        conservation(&g);
    }

    #[test]
    fn release_merges_back_to_whole_plane() {
        let mut g = GuillotineAlloc::standard();
        let pods = [(40u32, 12u32), (25, 30), (10, 95), (20, 20)];
        for (i, &(w, h)) in pods.iter().enumerate() {
            assert!(
                g.place(PodId(u64::try_from(i).unwrap()), w, h).is_some(),
                "pod {i} must fit"
            );
        }
        conservation(&g);
        for i in 0..pods.len() {
            g.release(PodId(u64::try_from(i).unwrap())).unwrap();
            conservation(&g);
        }
        assert_eq!(g.free_area(), g.capacity());
        assert_eq!(g.free_piece_count(), 1, "merges must reconsolidate");
        assert_eq!(g.largest_free_slot_area(), 10_000);
        assert!(g.merge_count() > 0);
    }

    #[test]
    fn exact_fallback_finds_l_shape_placement() {
        let mut g = GuillotineAlloc::standard();
        // Occupy (20,20)..(100,100): free space is an L (left column
        // 20×100 + bottom row 100×20) carved into two disjoint pieces.
        assert!(g.place_at(PodId(0), Rect::new(20, 20, 80, 80)));
        assert_eq!(g.free_piece_count(), 2);
        // A 100×20 demand fits no single disjoint piece…
        assert!(g.best_fit(100, 20).is_none());
        // …but the maximal rectangle (0,0,100,20) exists, so the exact
        // fallback must accept it.
        let r = g.place(PodId(1), 100, 20).unwrap();
        assert_eq!(r, Rect::new(0, 0, 100, 20));
        assert_eq!(g.exact_fallback_count(), 1);
        conservation(&g);
    }

    #[test]
    fn place_rejects_only_infeasible_demands() {
        let mut g = GuillotineAlloc::standard();
        assert!(g.place(PodId(0), 60, 100).is_some());
        assert!(g.place(PodId(1), 50, 10).is_none(), "only 40 wide remains");
        assert!(g.place(PodId(2), 40, 100).is_some());
        assert_eq!(g.free_area(), 0);
        assert!(g.place(PodId(3), 1, 1).is_none());
        conservation(&g);
    }

    #[test]
    fn place_at_mirrors_gpurects_contract() {
        let mut g = GuillotineAlloc::standard();
        assert!(g.place_at(PodId(0), Rect::new(10, 10, 30, 30)));
        // Overlap, out-of-bounds, duplicate pod and degenerate rects all
        // refuse without mutating.
        assert!(!g.place_at(PodId(1), Rect::new(20, 20, 30, 30)));
        assert!(!g.place_at(PodId(1), Rect::new(90, 90, 20, 20)));
        assert!(!g.place_at(PodId(0), Rect::new(50, 50, 10, 10)));
        assert!(!g.place_at(PodId(1), Rect::new(0, 0, 0, 5)));
        assert_eq!(g.used_area(), 900);
        conservation(&g);
    }

    #[test]
    fn handles_go_stale_after_release() {
        let mut g = GuillotineAlloc::standard();
        g.place(PodId(7), 10, 10).unwrap();
        let handle = g.handle_of(PodId(7)).unwrap();
        assert_eq!(g.release_by_handle(handle), Some(Rect::new(0, 0, 10, 10)));
        // Double free through the stale handle is rejected.
        assert_eq!(g.release_by_handle(handle), None);
        assert_eq!(g.pod_count(), 0);
        assert_eq!(g.free_area(), g.capacity());
    }

    #[test]
    fn counters_track_placement_identity() {
        let mut g = GuillotineAlloc::standard();
        let r = g.place(PodId(3), 33, 44).unwrap();
        assert_eq!(g.placement_of(PodId(3)), Some(r));
        assert_eq!(g.placements().collect::<Vec<_>>(), vec![(PodId(3), r)]);
        assert_eq!(g.pod_count(), 1);
        assert_eq!(g.release(PodId(3)), Some(r));
        assert_eq!(g.release(PodId(3)), None);
    }

    #[test]
    fn fragmentation_guards_and_reports_exactly() {
        let g = GuillotineAlloc::standard();
        assert!(g.fragmentation().abs() < 1e-12, "empty plane unfragmented");
        let mut g = GuillotineAlloc::standard();
        // Fill completely: free == 0 must not divide by zero.
        assert!(g.place(PodId(0), 100, 100).is_some());
        assert!(g.fragmentation().abs() < 1e-12);
        g.release(PodId(0)).unwrap();
        // L-shaped free space: exact metric uses maximal rects (the
        // 20×100 arm), not the disjoint pieces.
        let mut g = GuillotineAlloc::standard();
        assert!(g.place_at(PodId(0), Rect::new(20, 20, 80, 80)));
        let free = g.free_area() as f64;
        let expect = 1.0 - 2000.0 / free;
        assert!((g.fragmentation() - expect).abs() < 1e-12);
    }

    #[test]
    fn churn_reuses_slab_slots() {
        let mut g = GuillotineAlloc::standard();
        for round in 0u64..50 {
            for k in 0u64..8 {
                assert!(g.place(PodId(round * 8 + k), 20, 20).is_some());
            }
            for k in 0u64..8 {
                assert!(g.release(PodId(round * 8 + k)).is_some());
            }
            conservation(&g);
        }
        assert_eq!(g.free_area(), g.capacity());
        // The slab must not grow linearly with operations: slots recycle.
        assert!(
            g.slots.len() < 64,
            "slab leaked slots: {} live after churn",
            g.slots.len()
        );
    }
}
