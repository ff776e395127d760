//! # amjs-platform — machine models for job scheduling simulation
//!
//! The ICPP 2012 paper evaluates on Intrepid, the 40,960-node Blue Gene/P
//! at Argonne, where jobs run on *partitions*: contiguous, aligned,
//! power-of-two groups of 512-node midplanes. Partitioned allocation is
//! what makes the paper's Loss-of-Capacity metric (eq. 4) non-trivial — a
//! machine can hold plenty of idle nodes yet be unable to start a waiting
//! job because no free *partition* of the right shape exists.
//!
//! Two machine models are provided:
//!
//! * [`flat::FlatCluster`] — an idealized pool of interchangeable nodes
//!   (any `n ≤ idle` request succeeds). Useful as an ablation baseline and
//!   for fast tests.
//! * [`bgp::BgpCluster`] — the Blue Gene/P model: a line of midplanes with
//!   buddy-style aligned power-of-two blocks (plus the full machine as a
//!   special partition), defaulting to Intrepid's geometry of 80 midplanes
//!   × 512 nodes.
//!
//! Both implement [`Platform`] for *live* allocation and expose a
//! [`Plan`] — a cheap what-if availability profile over future time used
//! by the scheduler for window permutation search, reservations, and
//! backfill admission (see `amjs-core`). Plans support LIFO rollback so a
//! permutation can be speculatively committed and undone without cloning
//! the whole profile.

#![warn(missing_docs)]

pub mod bgp;
pub mod flat;
pub mod mask;
pub mod plan;

pub use bgp::BgpCluster;
pub use flat::FlatCluster;
pub use plan::{FlatPlan, PartitionPlan, Placement, PlacementHint, Plan, PlanToken};

use amjs_sim::SimTime;

/// Number of compute nodes (cores are not modeled; the paper schedules in
/// node units).
pub type Nodes = u32;

/// Opaque handle for a live allocation on a [`Platform`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocationId(pub u64);

impl amjs_sim::Snapshot for AllocationId {
    fn encode(&self, w: &mut amjs_sim::SnapWriter) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut amjs_sim::SnapReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        Ok(AllocationId(r.get_u64()?))
    }
}

/// Result of taking a node out of service ([`Platform::mark_down`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainOutcome {
    /// The node's capacity was free; it left service immediately.
    Down,
    /// The node sits inside the given live allocation. Its capacity
    /// leaves service when that allocation releases (job end or kill);
    /// until then the allocation keeps running ("draining").
    Draining(AllocationId),
    /// The node was already out of service (or already draining); the
    /// call changed nothing.
    AlreadyDown,
}

/// A machine that can run jobs now and describe its future availability.
///
/// `Clone + Send` because a what-if fork copies the machine and hands
/// the copy to a worker thread.
pub trait Platform: Clone + Send {
    /// The what-if planning profile type for this machine.
    type Plan: Plan + Send;

    /// Short machine name for reports (e.g. `"bgp-intrepid"`).
    fn name(&self) -> &'static str;

    /// Total node count.
    fn total_nodes(&self) -> Nodes;

    /// Nodes not currently assigned to any allocation. On a partitioned
    /// machine this counts whole idle partitions' nodes, including ones
    /// unusable for a given request due to fragmentation.
    fn idle_nodes(&self) -> Nodes;

    /// The smallest request the machine will allocate (requests are
    /// rounded up to an allocatable shape; e.g. 512 on Blue Gene/P).
    fn min_allocation(&self) -> Nodes;

    /// The node count actually consumed by a request of `nodes` (after
    /// rounding up to an allocatable partition shape).
    fn rounded_size(&self, nodes: Nodes) -> Nodes;

    /// Whether a request of `nodes` could be allocated right now.
    fn can_allocate(&self, nodes: Nodes) -> bool;

    /// Allocate `nodes` now. Returns `None` when no suitable shape is
    /// free (even if `idle_nodes() >= nodes` — that is fragmentation).
    fn allocate(&mut self, nodes: Nodes) -> Option<AllocationId>;

    /// Allocate `nodes` on the exact block a plan chose (see
    /// [`plan::PlacementHint`]). A zero-length hint falls back to the
    /// machine's own choice. Returns `None` if the hinted block is not
    /// free or does not match the rounded request size.
    fn allocate_hinted(&mut self, nodes: Nodes, hint: PlacementHint) -> Option<AllocationId>;

    /// Release a live allocation, returning the node count freed.
    ///
    /// # Panics
    /// Panics on an unknown id — double releases are logic errors.
    fn release(&mut self, id: AllocationId) -> Nodes;

    /// Rounded node count held by a live allocation.
    fn allocation_size(&self, id: AllocationId) -> Option<Nodes>;

    /// All live allocation ids, in ascending id order (deterministic).
    fn active_allocations(&self) -> Vec<AllocationId>;

    /// Build a what-if plan of future availability. `release_time(id)`
    /// must give the expected release time (≥ `now`) of each live
    /// allocation; the scheduler derives it from job start + requested
    /// walltime, clamped to `now` for jobs running past their estimate.
    /// The plan never promises capacity that is out of service.
    fn plan(&self, now: SimTime, release_time: &dyn Fn(AllocationId) -> SimTime) -> Self::Plan;

    // ----- node lifecycle (failure → drain → repair) -----

    /// Nodes currently in service: `total_nodes()` minus out-of-service
    /// capacity. Draining capacity (inside a live allocation) still
    /// counts as in service until its allocation releases.
    fn available_nodes(&self) -> Nodes {
        self.total_nodes()
    }

    /// Take the failure quantum containing node index `node` (one node
    /// on a flat machine, the whole midplane on a partitioned one) out
    /// of service. Free capacity leaves service immediately; capacity
    /// inside a live allocation drains — it leaves service when the
    /// allocation releases. Idempotent via [`DrainOutcome::AlreadyDown`].
    ///
    /// # Panics
    /// Panics if `node >= total_nodes()`.
    fn mark_down(&mut self, node: Nodes) -> DrainOutcome;

    /// Return the failure quantum containing node index `node` to
    /// service (repair completed). Cancels a pending drain if the
    /// capacity had not left service yet. No-op if it was in service.
    ///
    /// # Panics
    /// Panics if `node >= total_nodes()`.
    fn mark_up(&mut self, node: Nodes);

    /// The live allocation whose capacity contains node index `node`,
    /// if any. On a flat machine the mapping is a modeling fiction
    /// (allocations occupy consecutive index ranges in id order); on a
    /// partitioned machine it is the block owning the node's unit.
    fn allocation_containing(&self, node: Nodes) -> Option<AllocationId>;

    /// Whether a request of `nodes` could ever be satisfied with the
    /// current out-of-service set, even on an otherwise empty machine.
    /// The scheduler holds back jobs for which this is `false` until a
    /// repair restores enough capacity (instead of planning them onto
    /// capacity that is down).
    fn could_ever_allocate(&self, nodes: Nodes) -> bool;

    // ----- invariant oracle hooks -----

    /// Deep self-consistency check for the runtime invariant oracle:
    /// live allocations pairwise disjoint (no double allocation), busy
    /// bookkeeping in agreement with the live set, down/draining sets
    /// well-formed. Returns a diagnostic message on the first violation
    /// found. The default is a no-op so simple or test platforms need
    /// not implement it.
    fn check_consistency(&self) -> Result<(), String> {
        Ok(())
    }

    /// Whether any capacity of the live allocation `id` is out of
    /// service or pending drain. The simulation runner kills a job the
    /// moment a failure lands in its partition, so between events this
    /// must be `false` for every live allocation — the oracle's "no
    /// running job intersects a down midplane" invariant. The default
    /// (`false`) suits platforms without a node lifecycle.
    fn allocation_intersects_down(&self, _id: AllocationId) -> bool {
        false
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    /// Exercise the shared Platform contract against both machines.
    fn contract<P: Platform>(mut p: P) {
        let total = p.total_nodes();
        assert_eq!(p.idle_nodes(), total);
        let min = p.min_allocation();
        assert!(p.can_allocate(min));
        let id = p.allocate(min).expect("min allocation fits empty machine");
        assert_eq!(p.allocation_size(id), Some(p.rounded_size(min)));
        assert_eq!(p.idle_nodes(), total - p.rounded_size(min));
        assert_eq!(p.active_allocations(), vec![id]);
        let freed = p.release(id);
        assert_eq!(freed, p.rounded_size(min));
        assert_eq!(p.idle_nodes(), total);
        assert!(p.active_allocations().is_empty());
    }

    #[test]
    fn flat_satisfies_contract() {
        contract(FlatCluster::new(4096));
    }

    #[test]
    fn bgp_satisfies_contract() {
        contract(BgpCluster::intrepid());
    }
}
