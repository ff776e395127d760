//! Blue Gene/P-style partitioned machine.
//!
//! Intrepid (ANL's BG/P, the paper's testbed) schedules jobs onto
//! *partitions*: contiguous groups of 512-node midplanes wired into a
//! torus. We model the machine as a line of midplane units on which a job
//! occupies an **aligned power-of-two run of units** (a buddy-allocator
//! discipline), or the full machine for requests above the largest
//! power-of-two block. This reproduces the property the paper's Loss of
//! Capacity metric depends on: idle nodes can be plentiful while no free
//! partition of the required shape exists.
//!
//! Relative to real BG/P wiring this is a simplification (no 3-D torus
//! dimensions, no wiring conflicts between pass-through partitions), but
//! alignment + contiguity is what produces external fragmentation, and
//! that is the behaviour the paper's experiments exercise. Requests are
//! rounded up to the next partition size exactly as Cobalt does on the
//! real machine (a 700-node job receives a 1024-node partition).

use std::collections::BTreeMap;

use amjs_sim::{SimTime, Snapshot};

use crate::mask::{UnitMask, MAX_UNITS};
use crate::plan::PartitionPlan;
use crate::{AllocationId, DrainOutcome, Nodes, PlacementHint, Platform};

/// A partitioned Blue Gene/P-style machine.
#[derive(Clone, Debug)]
pub struct BgpCluster {
    units: u16,
    nodes_per_unit: Nodes,
    max_block: u16,
    /// Bit i set = unit i busy.
    busy: UnitMask,
    /// Bit i set = unit i out of service (failed, not yet repaired).
    /// Disjoint from `busy`: an in-use unit drains first.
    down: UnitMask,
    /// Bit i set = unit i failed while inside a live block; it moves to
    /// `down` when that block releases. Always a subset of `busy`.
    draining: UnitMask,
    next_id: u64,
    live: BTreeMap<AllocationId, Block>,
}

/// A live allocation's geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    /// First unit of the partition.
    pub unit_start: u16,
    /// Number of units in the partition.
    pub unit_len: u16,
}

impl BgpCluster {
    /// A machine of `units` midplanes with `nodes_per_unit` nodes each.
    ///
    /// # Panics
    /// Panics if `units` is 0 or exceeds 128, or `nodes_per_unit` is 0.
    pub fn new(units: u16, nodes_per_unit: Nodes) -> Self {
        assert!(
            units >= 1 && (units as usize) <= MAX_UNITS,
            "1..={MAX_UNITS} units supported"
        );
        assert!(nodes_per_unit >= 1);
        BgpCluster {
            units,
            nodes_per_unit,
            max_block: prev_power_of_two(units),
            busy: UnitMask::empty(),
            down: UnitMask::empty(),
            draining: UnitMask::empty(),
            next_id: 0,
            live: BTreeMap::new(),
        }
    }

    /// Intrepid's geometry: 80 midplanes × 512 nodes = 40,960 nodes
    /// (40 racks × 2 midplanes).
    pub fn intrepid() -> Self {
        BgpCluster::new(80, 512)
    }

    /// Intrepid at sub-midplane granularity: 640 units of 64 nodes —
    /// the finest partition size BG/P exposes. Jobs down to 64 nodes
    /// allocate exactly; everything still lands on aligned
    /// power-of-two blocks.
    pub fn intrepid_fine() -> Self {
        BgpCluster::new(640, 64)
    }

    /// A 1/10th-scale Intrepid (8 midplanes, 4096 nodes) for fast tests.
    pub fn intrepid_rack_row() -> Self {
        BgpCluster::new(8, 512)
    }

    /// Unit length a request rounds to; `None` if it exceeds the machine.
    fn rounded_units(&self, nodes: Nodes) -> Option<u16> {
        let req = nodes.max(1).div_ceil(self.nodes_per_unit);
        if req > self.units as u32 {
            return None;
        }
        let k = (req as u16).next_power_of_two();
        if k > self.max_block {
            Some(self.units)
        } else {
            Some(k)
        }
    }

    /// Units unusable for new allocations: busy or out of service.
    fn unusable_mask(&self) -> UnitMask {
        let mut mask = self.busy;
        mask.or_with(&self.down);
        mask
    }

    /// Lowest-index aligned block of `k` units clear under `mask`.
    fn find_block_in(&self, k: u16, mask: &UnitMask) -> Option<u16> {
        if k == self.units {
            // Also covers the non-power-of-two full-machine rounding.
            return mask.is_empty().then_some(0);
        }
        mask.first_clear_aligned_block(k, self.units)
    }

    /// Lowest-index aligned free block of `k` units right now.
    fn find_free_block(&self, k: u16) -> Option<u16> {
        self.find_block_in(k, &self.unusable_mask())
    }

    /// The midplane unit containing node index `node`.
    fn unit_of(&self, node: Nodes) -> u16 {
        assert!(node < self.total_nodes(), "node index out of range");
        (node / self.nodes_per_unit) as u16
    }

    /// Geometry of a live allocation.
    pub fn block_of(&self, id: AllocationId) -> Option<Block> {
        self.live.get(&id).copied()
    }

    /// Number of midplane units in the machine.
    pub fn units(&self) -> u16 {
        self.units
    }

    /// Nodes per midplane unit.
    pub fn nodes_per_unit(&self) -> Nodes {
        self.nodes_per_unit
    }

    /// Units currently out of service (failed and not yet repaired).
    /// Draining units are not included — their capacity is still in
    /// service until the owning block releases.
    pub fn down_units(&self) -> UnitMask {
        self.down
    }

    /// Test-only fault seeding for the invariant oracle: forge a second
    /// live allocation over the first live block's units *without*
    /// touching the busy mask — exactly the double-allocation corruption
    /// [`Platform::check_consistency`] exists to catch. Returns the
    /// forged id, or `None` on a machine with no live allocation.
    #[doc(hidden)]
    pub fn debug_corrupt_double_allocation(&mut self) -> Option<AllocationId> {
        let block = *self.live.values().next()?;
        let id = AllocationId(self.next_id);
        self.next_id += 1;
        self.live.insert(id, block);
        Some(id)
    }
}

impl Platform for BgpCluster {
    type Plan = PartitionPlan;

    fn name(&self) -> &'static str {
        "bgp"
    }

    fn total_nodes(&self) -> Nodes {
        self.units as Nodes * self.nodes_per_unit
    }

    fn idle_nodes(&self) -> Nodes {
        (self.units as u32 - self.busy.count_ones() - self.down.count_ones()) * self.nodes_per_unit
    }

    fn min_allocation(&self) -> Nodes {
        self.nodes_per_unit
    }

    fn rounded_size(&self, nodes: Nodes) -> Nodes {
        match self.rounded_units(nodes) {
            Some(k) => k as Nodes * self.nodes_per_unit,
            None => Nodes::MAX,
        }
    }

    fn can_allocate(&self, nodes: Nodes) -> bool {
        match self.rounded_units(nodes) {
            Some(k) => self.find_free_block(k).is_some(),
            None => false,
        }
    }

    fn allocate(&mut self, nodes: Nodes) -> Option<AllocationId> {
        let k = self.rounded_units(nodes)?;
        let start = self.find_free_block(k)?;
        self.busy.set_range(start, k);
        let id = AllocationId(self.next_id);
        self.next_id += 1;
        self.live.insert(
            id,
            Block {
                unit_start: start,
                unit_len: k,
            },
        );
        Some(id)
    }

    fn allocate_hinted(&mut self, nodes: Nodes, hint: PlacementHint) -> Option<AllocationId> {
        if hint.unit_len == 0 {
            return self.allocate(nodes);
        }
        let k = self.rounded_units(nodes)?;
        if k != hint.unit_len || hint.unit_start + k > self.units {
            return None; // hint does not match this request's shape
        }
        if !self.unusable_mask().range_is_clear(hint.unit_start, k) {
            return None; // hinted block is (partially) busy or down
        }
        self.busy.set_range(hint.unit_start, k);
        let id = AllocationId(self.next_id);
        self.next_id += 1;
        self.live.insert(
            id,
            Block {
                unit_start: hint.unit_start,
                unit_len: k,
            },
        );
        Some(id)
    }

    fn release(&mut self, id: AllocationId) -> Nodes {
        let block = self
            .live
            .remove(&id)
            .unwrap_or_else(|| panic!("release of unknown allocation {id:?}"));
        debug_assert!(
            self.busy.range_is_set(block.unit_start, block.unit_len),
            "released units were not busy"
        );
        self.busy.clear_range(block.unit_start, block.unit_len);
        // Draining units of the block leave service now (one word-level
        // intersect instead of a per-unit sweep).
        let leaving = self
            .draining
            .intersection(&UnitMask::block(block.unit_start, block.unit_len));
        if !leaving.is_empty() {
            self.draining.and_not_with(&leaving);
            self.down.or_with(&leaving);
        }
        block.unit_len as Nodes * self.nodes_per_unit
    }

    fn allocation_size(&self, id: AllocationId) -> Option<Nodes> {
        self.live
            .get(&id)
            .map(|b| b.unit_len as Nodes * self.nodes_per_unit)
    }

    fn active_allocations(&self) -> Vec<AllocationId> {
        self.live.keys().copied().collect()
    }

    fn plan_into(
        &self,
        now: SimTime,
        release_time: &dyn Fn(AllocationId) -> SimTime,
        plan: &mut Option<PartitionPlan>,
    ) {
        let running =
            (self.live.iter()).map(|(&id, b)| (b.unit_start, b.unit_len, release_time(id)));
        plan.get_or_insert_with(|| PartitionPlan::new(now, self.units, self.nodes_per_unit, &[]))
            .rebuild(now, self.units, self.nodes_per_unit, &self.down, running);
    }

    fn available_nodes(&self) -> Nodes {
        (self.units as u32 - self.down.count_ones()) * self.nodes_per_unit
    }

    fn mark_down(&mut self, node: Nodes) -> DrainOutcome {
        let u = self.unit_of(node);
        if self.down.range_is_set(u, 1) || self.draining.range_is_set(u, 1) {
            return DrainOutcome::AlreadyDown;
        }
        if self.busy.range_is_set(u, 1) {
            let id = self
                .allocation_containing(node)
                .expect("busy unit must belong to a live block");
            self.draining.set_range(u, 1);
            return DrainOutcome::Draining(id);
        }
        self.down.set_range(u, 1);
        DrainOutcome::Down
    }

    fn mark_up(&mut self, node: Nodes) {
        let u = self.unit_of(node);
        // Clears a completed outage or cancels a pending drain; no-op
        // on an in-service unit.
        self.down.clear_range(u, 1);
        self.draining.clear_range(u, 1);
    }

    fn allocation_containing(&self, node: Nodes) -> Option<AllocationId> {
        let u = self.unit_of(node);
        self.live
            .iter()
            .find(|(_, b)| b.unit_start <= u && u < b.unit_start + b.unit_len)
            .map(|(&id, _)| id)
    }

    fn could_ever_allocate(&self, nodes: Nodes) -> bool {
        match self.rounded_units(nodes) {
            Some(k) => self.find_block_in(k, &self.down).is_some(),
            None => false,
        }
    }

    fn check_consistency(&self) -> Result<(), String> {
        let mut owned = UnitMask::empty();
        for (&id, b) in &self.live {
            if b.unit_len == 0 || b.unit_start + b.unit_len > self.units {
                return Err(format!(
                    "allocation {id:?} out of bounds: units {}..{} on a {}-unit machine",
                    b.unit_start,
                    b.unit_start + b.unit_len,
                    self.units
                ));
            }
            let block = UnitMask::block(b.unit_start, b.unit_len);
            if owned.intersects(&block) {
                return Err(format!(
                    "double allocation: {id:?} overlaps another live block at units {}..{}",
                    b.unit_start,
                    b.unit_start + b.unit_len
                ));
            }
            owned.or_with(&block);
        }
        if owned != self.busy {
            return Err(format!(
                "busy mask disagrees with live blocks: {} busy units vs {} owned",
                self.busy.count_ones(),
                owned.count_ones()
            ));
        }
        if !self.draining.is_subset_of(&self.busy) {
            let mut stray = self.draining;
            stray.and_not_with(&self.busy);
            return Err(format!(
                "{} unit(s) draining but not busy",
                stray.count_ones()
            ));
        }
        if self.down.intersects(&self.busy) {
            return Err("down mask intersects busy units".to_string());
        }
        if self.down.intersects(&self.draining) {
            return Err("down mask intersects draining units".to_string());
        }
        Ok(())
    }

    fn allocation_intersects_down(&self, id: AllocationId) -> bool {
        let Some(b) = self.live.get(&id) else {
            return false;
        };
        let block = UnitMask::block(b.unit_start, b.unit_len);
        self.down.intersects(&block) || self.draining.intersects(&block)
    }
}

impl Snapshot for Block {
    fn encode(&self, w: &mut amjs_sim::SnapWriter) {
        w.put_u16(self.unit_start);
        w.put_u16(self.unit_len);
    }
    fn decode(r: &mut amjs_sim::SnapReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        Ok(Block {
            unit_start: r.get_u16()?,
            unit_len: r.get_u16()?,
        })
    }
}

impl Snapshot for BgpCluster {
    fn encode(&self, w: &mut amjs_sim::SnapWriter) {
        w.put_u16(self.units);
        w.put_u32(self.nodes_per_unit);
        w.put_u16(self.max_block);
        self.busy.encode(w);
        self.down.encode(w);
        self.draining.encode(w);
        w.put_u64(self.next_id);
        // BTreeMap iterates in id order: canonical encoding.
        w.put_usize(self.live.len());
        for (id, block) in &self.live {
            id.encode(w);
            block.encode(w);
        }
    }
    fn decode(r: &mut amjs_sim::SnapReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        let units = r.get_u16()?;
        let nodes_per_unit = r.get_u32()?;
        let max_block = r.get_u16()?;
        let busy = UnitMask::decode(r)?;
        let down = UnitMask::decode(r)?;
        let draining = UnitMask::decode(r)?;
        let next_id = r.get_u64()?;
        let mut live = BTreeMap::new();
        for _ in 0..r.get_usize()? {
            let id = AllocationId::decode(r)?;
            live.insert(id, Block::decode(r)?);
        }
        if units == 0 || units as usize > MAX_UNITS || nodes_per_unit == 0 {
            return Err(amjs_sim::SnapError::Malformed(format!(
                "impossible BGP geometry: {units} units x {nodes_per_unit} nodes"
            )));
        }
        let c = BgpCluster {
            units,
            nodes_per_unit,
            max_block,
            busy,
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

/// Largest power of two `<= n` (n >= 1).
fn prev_power_of_two(n: u16) -> u16 {
    let npot = n.next_power_of_two();
    if npot == n {
        n
    } else {
        npot / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trip_preserves_masks_and_blocks() {
        use amjs_sim::{SnapReader, SnapWriter};
        let mut c = BgpCluster::intrepid_rack_row();
        let a = c.allocate(512).unwrap();
        let _b = c.allocate(1024).unwrap();
        c.mark_down(7 * 512); // idle midplane down
        c.mark_down(0); // drains inside `a`
        c.release(a);

        let mut w = SnapWriter::new();
        c.encode(&mut w);
        let bytes = w.into_bytes();
        let mut restored = BgpCluster::decode(&mut SnapReader::new(&bytes)).unwrap();
        restored.check_consistency().unwrap();
        assert_eq!(restored.total_nodes(), c.total_nodes());
        assert_eq!(restored.idle_nodes(), c.idle_nodes());
        assert_eq!(restored.available_nodes(), c.available_nodes());
        assert_eq!(restored.active_allocations(), c.active_allocations());
        // Identical placement decisions after restore.
        assert_eq!(restored.allocate(512), c.allocate(512));
        assert_eq!(
            restored
                .active_allocations()
                .last()
                .and_then(|&id| restored.block_of(id)),
            c.active_allocations().last().and_then(|&id| c.block_of(id)),
        );
    }

    #[test]
    fn intrepid_dimensions() {
        let c = BgpCluster::intrepid();
        assert_eq!(c.total_nodes(), 40_960);
        assert_eq!(c.min_allocation(), 512);
        assert_eq!(c.rounded_size(1), 512);
        assert_eq!(c.rounded_size(2048), 2048);
        assert_eq!(c.rounded_size(2049), 4096);
        // Above the largest power-of-two block (32K) → full machine.
        assert_eq!(c.rounded_size(32_769), 40_960);
        assert_eq!(c.rounded_size(40_960), 40_960);
        assert_eq!(c.rounded_size(40_961), Nodes::MAX);
        assert!(!c.can_allocate(40_961));
    }

    #[test]
    fn buddy_alignment_is_enforced() {
        let mut c = BgpCluster::new(8, 512);
        // Take unit 0 (one midplane).
        let a = c.allocate(512).unwrap();
        assert_eq!(
            c.block_of(a).unwrap(),
            Block {
                unit_start: 0,
                unit_len: 1
            }
        );
        // A 2-unit job must go to the aligned pair {2,3}, not {1,2}.
        let b = c.allocate(1024).unwrap();
        assert_eq!(
            c.block_of(b).unwrap(),
            Block {
                unit_start: 2,
                unit_len: 2
            }
        );
        // A 4-unit job takes the upper half.
        let d = c.allocate(2048).unwrap();
        assert_eq!(
            c.block_of(d).unwrap(),
            Block {
                unit_start: 4,
                unit_len: 4
            }
        );
        // Only unit 1 is free now: capacity 512 idle.
        assert_eq!(c.idle_nodes(), 512);
        assert!(c.can_allocate(512));
        assert!(!c.can_allocate(1024));
    }

    #[test]
    fn fragmentation_blocks_despite_capacity() {
        let mut c = BgpCluster::new(8, 512);
        // Occupy units 0 and 2: 6 units (3072 nodes) idle, but no free
        // aligned 4-unit block in the lower half, upper half is free.
        let _a = c.allocate(512).unwrap(); // unit 0
        let _b = c.allocate(512).unwrap(); // unit 1
        let _c2 = c.allocate(512).unwrap(); // unit 2
        c.release(_b);
        assert_eq!(c.idle_nodes(), 6 * 512);
        assert!(c.can_allocate(2048)); // units 4..8 are free
        let big = c.allocate(2048).unwrap();
        assert_eq!(c.block_of(big).unwrap().unit_start, 4);
        // Only units 1 and 3 remain idle: 1024 nodes.
        assert_eq!(c.idle_nodes(), 2 * 512);
        // 1024 idle nodes but no aligned pair free → fragmentation.
        assert!(!c.can_allocate(1024));
        assert!(c.can_allocate(512));
    }

    #[test]
    fn full_machine_partition() {
        let mut c = BgpCluster::intrepid();
        let id = c.allocate(40_960).unwrap();
        assert_eq!(c.idle_nodes(), 0);
        assert_eq!(c.allocation_size(id), Some(40_960));
        assert!(!c.can_allocate(512));
        assert_eq!(c.release(id), 40_960);
        assert_eq!(c.idle_nodes(), 40_960);
    }

    #[test]
    fn release_restores_exactly() {
        let mut c = BgpCluster::new(16, 512);
        let ids: Vec<_> = (0..4).map(|_| c.allocate(1024).unwrap()).collect();
        assert_eq!(c.idle_nodes(), 8 * 512);
        for id in ids {
            c.release(id);
        }
        assert_eq!(c.idle_nodes(), 16 * 512);
        assert!(c.busy.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown allocation")]
    fn double_release_panics() {
        let mut c = BgpCluster::new(8, 512);
        let a = c.allocate(512).unwrap();
        c.release(a);
        c.release(a);
    }

    #[test]
    fn plan_mirrors_live_geometry() {
        use crate::plan::Plan;
        use amjs_sim::SimDuration;

        let mut c = BgpCluster::new(8, 512);
        let a = c.allocate(2048).unwrap(); // units 0..4
        let now = SimTime::from_secs(0);
        let plan = c.plan(now, &|_| SimTime::from_secs(100));
        // Another 4-unit job fits now (upper half)...
        assert!(plan.can_place_at(2048, now, SimDuration::from_secs(10)));
        // ...but the full machine must wait for the release.
        assert_eq!(
            plan.earliest_start(4096, SimDuration::from_secs(10), now),
            SimTime::from_secs(100)
        );
        c.release(a);
    }

    #[test]
    fn non_power_of_two_machine_has_full_partition() {
        // 80 units: an 80-unit "full" request works when empty.
        let mut c = BgpCluster::intrepid();
        let small = c.allocate(512).unwrap();
        assert!(!c.can_allocate(40_960));
        c.release(small);
        assert!(c.can_allocate(40_960));
    }

    #[test]
    #[should_panic(expected = "units supported")]
    fn too_many_units_panics() {
        let _ = BgpCluster::new(1025, 512);
    }

    #[test]
    fn failed_free_midplane_goes_down_immediately() {
        use crate::DrainOutcome;
        let mut c = BgpCluster::new(8, 512);
        // Node 3000 is in unit 5 (free).
        assert_eq!(c.mark_down(3000), DrainOutcome::Down);
        assert_eq!(c.available_nodes(), 7 * 512);
        assert_eq!(c.idle_nodes(), 7 * 512);
        // The upper half (units 4..8) now contains a down unit: a
        // 4-unit job must land on the lower half.
        let big = c.allocate(2048).unwrap();
        assert_eq!(c.block_of(big).unwrap().unit_start, 0);
        assert!(!c.can_allocate(2048));
        // Second failure on the same unit is absorbed.
        assert_eq!(c.mark_down(3000), DrainOutcome::AlreadyDown);
        c.mark_up(3000);
        assert_eq!(c.available_nodes(), 8 * 512);
        assert!(c.can_allocate(2048));
    }

    #[test]
    fn failed_busy_midplane_drains_on_release() {
        use crate::DrainOutcome;
        let mut c = BgpCluster::new(8, 512);
        let a = c.allocate(1024).unwrap(); // units 0..2
        assert_eq!(c.allocation_containing(600), Some(a));
        assert_eq!(c.mark_down(600), DrainOutcome::Draining(a));
        // Still in service while the block runs.
        assert_eq!(c.available_nodes(), 8 * 512);
        // Release takes unit 1 out of service; unit 0 goes idle.
        c.release(a);
        assert_eq!(c.available_nodes(), 7 * 512);
        assert_eq!(c.idle_nodes(), 7 * 512);
        // The pair {0,1} is no longer allocatable; {2,3} is.
        let b = c.allocate(1024).unwrap();
        assert_eq!(c.block_of(b).unwrap().unit_start, 2);
        c.mark_up(600);
        assert_eq!(c.available_nodes(), 8 * 512);
    }

    #[test]
    fn repair_before_release_cancels_drain() {
        let mut c = BgpCluster::new(8, 512);
        let a = c.allocate(512).unwrap();
        c.mark_down(100); // unit 0, busy → draining
        c.mark_up(100); // repaired before the job ended
        c.release(a);
        assert_eq!(c.available_nodes(), 8 * 512);
        assert_eq!(c.idle_nodes(), 8 * 512);
    }

    #[test]
    fn full_machine_needs_every_unit_in_service() {
        let mut c = BgpCluster::new(8, 512);
        assert!(c.could_ever_allocate(4096));
        c.mark_down(0);
        assert!(!c.can_allocate(4096));
        assert!(!c.could_ever_allocate(4096));
        assert!(c.could_ever_allocate(2048)); // upper half intact
        c.mark_up(0);
        assert!(c.could_ever_allocate(4096));
    }

    #[test]
    fn degraded_plan_never_promises_down_units() {
        use crate::plan::Plan;
        use amjs_sim::SimDuration;
        let mut c = BgpCluster::new(8, 512);
        c.mark_down(6 * 512); // unit 6 down
        let plan = c.plan(SimTime::ZERO, &|_| SimTime::ZERO);
        // A 2-unit job cannot use pair {6,7}; {0,1} is fine.
        assert!(plan.can_place_at(1024, SimTime::ZERO, SimDuration::from_secs(10)));
        // The full machine can never start while a unit is down.
        assert_eq!(
            plan.earliest_start(4096, SimDuration::from_secs(10), SimTime::ZERO),
            SimTime::MAX
        );
    }

    #[test]
    fn consistency_check_accepts_lifecycle_states() {
        let mut c = BgpCluster::new(8, 512);
        c.check_consistency().unwrap();
        let a = c.allocate(1024).unwrap();
        let _b = c.allocate(512).unwrap();
        c.check_consistency().unwrap();
        c.mark_down(7 * 512); // free unit → down
        c.mark_down(600); // unit 1 inside `a` → draining
        c.check_consistency().unwrap();
        assert!(c.allocation_intersects_down(a));
        assert!(!c.allocation_intersects_down(_b));
        c.release(a); // draining unit leaves service
        c.check_consistency().unwrap();
        assert_eq!(c.down_units().count_ones(), 2);
    }

    #[test]
    fn consistency_check_catches_seeded_double_allocation() {
        let mut c = BgpCluster::new(8, 512);
        let _a = c.allocate(1024).unwrap();
        c.check_consistency().unwrap();
        let forged = c.debug_corrupt_double_allocation().unwrap();
        let err = c.check_consistency().unwrap_err();
        assert!(err.contains("double allocation"), "err={err}");
        assert!(err.contains(&format!("{forged:?}")), "err={err}");
    }

    #[test]
    fn consistency_check_catches_busy_mask_drift() {
        let mut c = BgpCluster::new(8, 512);
        let a = c.allocate(512).unwrap();
        c.busy.clear_range(c.block_of(a).unwrap().unit_start, 1);
        let err = c.check_consistency().unwrap_err();
        assert!(err.contains("busy mask"), "err={err}");
    }

    #[test]
    fn fine_grained_intrepid_allocates_small_jobs() {
        let mut c = BgpCluster::intrepid_fine();
        assert_eq!(c.total_nodes(), 40_960);
        assert_eq!(c.min_allocation(), 64);
        // A 64-node job takes exactly one unit; a 100-node job rounds
        // to 128.
        let small = c.allocate(64).unwrap();
        assert_eq!(c.allocation_size(small), Some(64));
        let mid = c.allocate(100).unwrap();
        assert_eq!(c.allocation_size(mid), Some(128));
        // Alignment holds at this granularity too.
        let b = c.block_of(mid).unwrap();
        assert_eq!(b.unit_start % b.unit_len, 0);
        // Largest power-of-two block is 512 units (32,768 nodes); above
        // that, the full machine.
        assert_eq!(c.rounded_size(32_768), 32_768);
        assert_eq!(c.rounded_size(32_769), 40_960);
    }
}
