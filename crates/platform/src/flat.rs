//! An idealized cluster of interchangeable nodes.
//!
//! Any request `n <= idle_nodes()` succeeds — there is no geometry, so the
//! only Loss of Capacity a flat machine can exhibit comes from backfill
//! admission (a job that fits is held back to protect a reservation), not
//! from fragmentation. Comparing LoC here against [`crate::BgpCluster`]
//! isolates the fragmentation contribution (see the `ablation_platform`
//! experiment).

use std::collections::BTreeMap;

use amjs_sim::SimTime;

use crate::plan::FlatPlan;
use crate::{AllocationId, DrainOutcome, Nodes, PlacementHint, Platform};

/// A pool of `total` interchangeable nodes.
#[derive(Clone, Debug)]
pub struct FlatCluster {
    total: Nodes,
    idle: Nodes,
    /// Nodes out of service (failed, not yet repaired). Never counted
    /// in `idle` and never allocated.
    down: Nodes,
    /// Per-allocation count of nodes that leave service when the
    /// allocation releases (failed while in use).
    draining: BTreeMap<AllocationId, Nodes>,
    next_id: u64,
    // BTreeMap keeps `active_allocations` deterministic in id order.
    live: BTreeMap<AllocationId, Nodes>,
}

impl FlatCluster {
    /// A new, fully idle cluster.
    ///
    /// # Panics
    /// Panics if `total == 0`.
    pub fn new(total: Nodes) -> Self {
        assert!(total > 0, "a cluster needs at least one node");
        FlatCluster {
            total,
            idle: total,
            down: 0,
            draining: BTreeMap::new(),
            next_id: 0,
            live: BTreeMap::new(),
        }
    }
}

impl Platform for FlatCluster {
    type Plan = FlatPlan;

    fn name(&self) -> &'static str {
        "flat"
    }

    fn total_nodes(&self) -> Nodes {
        self.total
    }

    fn idle_nodes(&self) -> Nodes {
        self.idle
    }

    fn min_allocation(&self) -> Nodes {
        1
    }

    fn rounded_size(&self, nodes: Nodes) -> Nodes {
        nodes.max(1)
    }

    fn can_allocate(&self, nodes: Nodes) -> bool {
        self.rounded_size(nodes) <= self.idle
    }

    fn allocate(&mut self, nodes: Nodes) -> Option<AllocationId> {
        let nodes = self.rounded_size(nodes);
        if nodes > self.idle {
            return None;
        }
        let id = AllocationId(self.next_id);
        self.next_id += 1;
        self.idle -= nodes;
        self.live.insert(id, nodes);
        Some(id)
    }

    fn allocate_hinted(&mut self, nodes: Nodes, _hint: PlacementHint) -> Option<AllocationId> {
        // Flat machines have no geometry; the hint carries no information.
        self.allocate(nodes)
    }

    fn release(&mut self, id: AllocationId) -> Nodes {
        let nodes = self
            .live
            .remove(&id)
            .unwrap_or_else(|| panic!("release of unknown allocation {id:?}"));
        // Draining nodes leave service now instead of going idle.
        let drained = self.draining.remove(&id).unwrap_or(0);
        self.idle += nodes - drained;
        self.down += drained;
        nodes
    }

    fn allocation_size(&self, id: AllocationId) -> Option<Nodes> {
        self.live.get(&id).copied()
    }

    fn active_allocations(&self) -> Vec<AllocationId> {
        self.live.keys().copied().collect()
    }

    fn plan_into(
        &self,
        now: SimTime,
        release_time: &dyn Fn(AllocationId) -> SimTime,
        plan: &mut Option<FlatPlan>,
    ) {
        let running = self
            .live
            .iter()
            .map(|(&id, &nodes)| (nodes, release_time(id)));
        plan.get_or_insert_with(|| FlatPlan::new(now, self.total, &[]))
            .rebuild(now, self.total, self.down, running);
    }

    fn available_nodes(&self) -> Nodes {
        self.total - self.down
    }

    fn mark_down(&mut self, node: Nodes) -> DrainOutcome {
        assert!(node < self.total, "node index out of range");
        // Index fiction for a geometry-free pool: live allocations
        // occupy consecutive index ranges from 0 in id order, idle
        // nodes follow, out-of-service nodes sit at the top.
        if node >= self.total - self.down {
            return DrainOutcome::AlreadyDown;
        }
        if let Some(id) = self.allocation_containing(node) {
            let size = self.live[&id];
            let count = self.draining.entry(id).or_insert(0);
            if *count >= size {
                return DrainOutcome::AlreadyDown;
            }
            *count += 1;
            return DrainOutcome::Draining(id);
        }
        self.idle -= 1;
        self.down += 1;
        DrainOutcome::Down
    }

    fn mark_up(&mut self, node: Nodes) {
        assert!(node < self.total, "node index out of range");
        if self.down > 0 {
            self.down -= 1;
            self.idle += 1;
        } else if let Some((&id, _)) = self.draining.iter().next() {
            // Repair arrived before the drain completed: cancel it.
            let count = self.draining.get_mut(&id).unwrap();
            *count -= 1;
            if *count == 0 {
                self.draining.remove(&id);
            }
        }
    }

    fn allocation_containing(&self, node: Nodes) -> Option<AllocationId> {
        let mut cum = 0;
        for (&id, &size) in &self.live {
            cum += size;
            if node < cum {
                return Some(id);
            }
        }
        None
    }

    fn could_ever_allocate(&self, nodes: Nodes) -> bool {
        self.rounded_size(nodes) <= self.total - self.down
    }

    fn check_consistency(&self) -> Result<(), String> {
        let allocated: Nodes = self.live.values().sum();
        if allocated + self.idle + self.down != self.total {
            return Err(format!(
                "node conservation broken: {} allocated + {} idle + {} down != {} total",
                allocated, self.idle, self.down, self.total
            ));
        }
        for (&id, &count) in &self.draining {
            match self.live.get(&id) {
                None => return Err(format!("draining entry for dead allocation {id:?}")),
                Some(&size) if count > size => {
                    return Err(format!("allocation {id:?} drains {count} of {size} nodes"));
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    fn allocation_intersects_down(&self, id: AllocationId) -> bool {
        // No geometry: an allocation touches down capacity exactly when
        // it has a pending drain.
        self.draining.contains_key(&id)
    }
}

impl amjs_sim::Snapshot for FlatCluster {
    fn encode(&self, w: &mut amjs_sim::SnapWriter) {
        w.put_u32(self.total);
        w.put_u32(self.idle);
        w.put_u32(self.down);
        w.put_u64(self.next_id);
        // BTreeMaps iterate in key order, so the encoding is canonical.
        w.put_usize(self.draining.len());
        for (id, nodes) in &self.draining {
            id.encode(w);
            w.put_u32(*nodes);
        }
        w.put_usize(self.live.len());
        for (id, nodes) in &self.live {
            id.encode(w);
            w.put_u32(*nodes);
        }
    }
    fn decode(r: &mut amjs_sim::SnapReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        let total = r.get_u32()?;
        let idle = r.get_u32()?;
        let down = r.get_u32()?;
        let next_id = r.get_u64()?;
        let mut draining = BTreeMap::new();
        for _ in 0..r.get_usize()? {
            let id = AllocationId::decode(r)?;
            draining.insert(id, r.get_u32()?);
        }
        let mut live = BTreeMap::new();
        for _ in 0..r.get_usize()? {
            let id = AllocationId::decode(r)?;
            live.insert(id, r.get_u32()?);
        }
        let c = FlatCluster {
            total,
            idle,
            down,
            draining,
            next_id,
            live,
        };
        c.check_consistency()
            .map_err(amjs_sim::SnapError::Malformed)?;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use amjs_sim::SimDuration;

    #[test]
    fn allocate_until_full_then_fail() {
        let mut c = FlatCluster::new(100);
        let a = c.allocate(60).unwrap();
        assert_eq!(c.idle_nodes(), 40);
        assert!(c.can_allocate(40));
        assert!(!c.can_allocate(41));
        assert!(c.allocate(41).is_none());
        let b = c.allocate(40).unwrap();
        assert_eq!(c.idle_nodes(), 0);
        c.release(a);
        assert_eq!(c.idle_nodes(), 60);
        c.release(b);
        assert_eq!(c.idle_nodes(), 100);
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let mut c = FlatCluster::new(100);
        let a = c.allocate(10).unwrap();
        let b = c.allocate(10).unwrap();
        assert_ne!(a, b);
        assert_eq!(c.active_allocations(), vec![a, b]);
        c.release(a);
        // Ids are never reused.
        let d = c.allocate(10).unwrap();
        assert!(d > b);
    }

    #[test]
    #[should_panic(expected = "unknown allocation")]
    fn double_release_panics() {
        let mut c = FlatCluster::new(10);
        let a = c.allocate(5).unwrap();
        c.release(a);
        c.release(a);
    }

    #[test]
    fn zero_node_request_rounds_to_one() {
        let mut c = FlatCluster::new(10);
        let a = c.allocate(0).unwrap();
        assert_eq!(c.allocation_size(a), Some(1));
        assert_eq!(c.idle_nodes(), 9);
    }

    #[test]
    fn plan_reflects_live_state() {
        let mut c = FlatCluster::new(100);
        let a = c.allocate(70).unwrap();
        let now = SimTime::from_secs(10);
        let plan = c.plan(now, &|id| {
            assert_eq!(id, a);
            SimTime::from_secs(50)
        });
        assert_eq!(plan.now(), now);
        assert_eq!(
            plan.earliest_start(50, SimDuration::from_secs(5), now),
            SimTime::from_secs(50)
        );
        assert_eq!(plan.earliest_start(30, SimDuration::from_secs(5), now), now);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_total_panics() {
        let _ = FlatCluster::new(0);
    }

    #[test]
    fn idle_node_goes_down_immediately() {
        use crate::DrainOutcome;
        let mut c = FlatCluster::new(100);
        let _a = c.allocate(40).unwrap();
        // Node 90 is idle (live span is [0,40)).
        assert_eq!(c.mark_down(90), DrainOutcome::Down);
        assert_eq!(c.available_nodes(), 99);
        assert_eq!(c.idle_nodes(), 59);
        assert!(!c.can_allocate(60));
        assert!(c.can_allocate(59));
        c.mark_up(90);
        assert_eq!(c.available_nodes(), 100);
        assert_eq!(c.idle_nodes(), 60);
    }

    #[test]
    fn busy_node_drains_until_release() {
        use crate::DrainOutcome;
        let mut c = FlatCluster::new(100);
        let a = c.allocate(40).unwrap();
        assert_eq!(c.allocation_containing(10), Some(a));
        assert_eq!(c.mark_down(10), DrainOutcome::Draining(a));
        // Still in service while the job runs.
        assert_eq!(c.available_nodes(), 100);
        assert_eq!(c.idle_nodes(), 60);
        // Release completes the drain: 39 nodes go idle, 1 goes down.
        assert_eq!(c.release(a), 40);
        assert_eq!(c.available_nodes(), 99);
        assert_eq!(c.idle_nodes(), 99);
        c.mark_up(10);
        assert_eq!(c.available_nodes(), 100);
    }

    #[test]
    fn repair_before_release_cancels_drain() {
        let mut c = FlatCluster::new(100);
        let a = c.allocate(40).unwrap();
        c.mark_down(10);
        c.mark_up(10);
        assert_eq!(c.release(a), 40);
        assert_eq!(c.available_nodes(), 100);
        assert_eq!(c.idle_nodes(), 100);
    }

    #[test]
    fn down_node_is_already_down() {
        use crate::DrainOutcome;
        let mut c = FlatCluster::new(10);
        assert_eq!(c.mark_down(9), DrainOutcome::Down);
        // The top index region is out of service now.
        assert_eq!(c.mark_down(9), DrainOutcome::AlreadyDown);
        assert_eq!(c.available_nodes(), 9);
    }

    #[test]
    fn consistency_check_tracks_the_lifecycle() {
        let mut c = FlatCluster::new(100);
        c.check_consistency().unwrap();
        let a = c.allocate(40).unwrap();
        c.mark_down(90); // idle node
        c.mark_down(10); // inside `a` → draining
        c.check_consistency().unwrap();
        assert!(c.allocation_intersects_down(a));
        c.release(a);
        c.check_consistency().unwrap();
        assert_eq!(c.available_nodes(), 98);
        // Hand-corrupt the books: conservation must trip.
        c.idle -= 1;
        let err = c.check_consistency().unwrap_err();
        assert!(err.contains("conservation"), "err={err}");
    }

    #[test]
    fn snapshot_round_trip_preserves_lifecycle_state() {
        use amjs_sim::{SnapReader, SnapWriter, Snapshot};
        let mut c = FlatCluster::new(100);
        let a = c.allocate(40).unwrap();
        let _b = c.allocate(20).unwrap();
        c.mark_down(90); // idle node down
        c.mark_down(10); // drains inside `a`
        c.release(a);

        let mut w = SnapWriter::new();
        c.encode(&mut w);
        let bytes = w.into_bytes();
        let mut restored = FlatCluster::decode(&mut SnapReader::new(&bytes)).unwrap();
        restored.check_consistency().unwrap();
        assert_eq!(restored.total_nodes(), c.total_nodes());
        assert_eq!(restored.idle_nodes(), c.idle_nodes());
        assert_eq!(restored.available_nodes(), c.available_nodes());
        assert_eq!(restored.active_allocations(), c.active_allocations());
        // Allocation ids continue where the original left off.
        assert_eq!(restored.allocate(5), c.allocate(5));
    }

    #[test]
    fn degraded_plan_never_promises_down_capacity() {
        use amjs_sim::SimDuration;
        let mut c = FlatCluster::new(100);
        c.mark_down(50);
        c.mark_down(51);
        let plan = c.plan(SimTime::ZERO, &|_| SimTime::ZERO);
        assert!(plan.can_place_at(98, SimTime::ZERO, SimDuration::from_secs(10)));
        assert!(!plan.can_place_at(99, SimTime::ZERO, SimDuration::from_secs(10)));
        assert_eq!(
            plan.earliest_start(99, SimDuration::from_secs(10), SimTime::ZERO),
            SimTime::MAX
        );
        assert!(c.could_ever_allocate(98));
        assert!(!c.could_ever_allocate(99));
    }
}
