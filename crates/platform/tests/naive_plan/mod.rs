//! `NaivePlan`: the reference answers the shipping plans are checked
//! against. One commitment list, rescanned in full for every query, on
//! either a flat machine (aggregate capacity) or a partitioned one
//! (aligned power-of-two blocks of units, or the whole machine). It
//! shares nothing with `FlatPlan`/`PartitionPlan` but their public
//! types and `UnitMask`'s bit-at-a-time `_naive` scans.
//!
//! The earliest start of a rigid job is `not_before` or the end of a
//! live commitment: a feasible start that is neither stays feasible an
//! instant earlier, since no load ends there and its window reaches
//! less far. So [`NaivePlan::earliest_start`] tries exactly those
//! candidates, in order, each with a full scan.

use amjs_platform::mask::UnitMask;
use amjs_platform::plan::PlacementHint;
use amjs_platform::Nodes;
use amjs_sim::{SimDuration, SimTime};

/// The machine the plan models.
#[derive(Clone, Debug)]
enum Machine {
    /// `total` nodes, of which `down` are out of service.
    Flat { total: Nodes, down: Nodes },
    /// `units` units of `nodes_per_unit` nodes; the units in `down` are
    /// out of service.
    Blocks {
        units: u16,
        nodes_per_unit: Nodes,
        down: UnitMask,
    },
}

/// One busy interval: `len` nodes (flat) or the units
/// `[first, first + len)` (blocks). A voided commitment has
/// `end == start` and holds nothing.
#[derive(Clone, Copy, Debug)]
struct Held {
    first: u16,
    len: u32,
    start: SimTime,
    end: SimTime,
}

/// A commitment's handle; hand it back to [`NaivePlan::rollback`] in
/// LIFO order, or to [`NaivePlan::deactivate`].
#[derive(Debug)]
pub struct NaiveToken(usize);

#[derive(Clone, Debug)]
pub struct NaivePlan {
    now: SimTime,
    machine: Machine,
    base_len: usize,
    held: Vec<Held>,
}

/// Every interval lasts at least a second.
fn end_of(start: SimTime, duration: SimDuration) -> SimTime {
    start + duration.max(SimDuration::from_secs(1))
}

impl NaivePlan {
    /// A flat machine with running jobs `(nodes, release_time)`.
    pub fn flat(now: SimTime, total: Nodes, down: Nodes, running: &[(Nodes, SimTime)]) -> Self {
        assert!(down <= total);
        let base = running.iter().map(|&(nodes, release)| (0, nodes, release));
        Self::with_base(now, Machine::Flat { total, down }, base)
    }

    /// A partitioned machine with running blocks
    /// `(unit_start, unit_len, release_time)`.
    pub fn blocks(
        now: SimTime,
        units: u16,
        nodes_per_unit: Nodes,
        down: UnitMask,
        running: &[(u16, u16, SimTime)],
    ) -> Self {
        let machine = Machine::Blocks {
            units,
            nodes_per_unit,
            down,
        };
        let base = running
            .iter()
            .map(|&(first, len, release)| (first, len as u32, release));
        Self::with_base(now, machine, base)
    }

    fn with_base(
        now: SimTime,
        machine: Machine,
        base: impl Iterator<Item = (u16, u32, SimTime)>,
    ) -> Self {
        // A running job past its estimate still holds its resources for
        // the next second.
        let held: Vec<Held> = base
            .map(|(first, len, release)| Held {
                first,
                len,
                start: now,
                end: release.max(now + SimDuration::from_secs(1)),
            })
            .collect();
        NaivePlan {
            now,
            machine,
            base_len: held.len(),
            held,
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn total_nodes(&self) -> Nodes {
        match self.machine {
            Machine::Flat { total, .. } => total,
            Machine::Blocks {
                units,
                nodes_per_unit,
                ..
            } => units as Nodes * nodes_per_unit,
        }
    }

    /// What a request of `nodes` holds: nodes on a flat machine, units
    /// of a block (a power of two up to the largest one in the machine,
    /// else the whole machine) on a partitioned one, where `None` means
    /// larger than the machine.
    fn rounded(&self, nodes: Nodes) -> Option<u32> {
        let nodes = nodes.max(1);
        let Machine::Blocks {
            units,
            nodes_per_unit,
            ..
        } = self.machine
        else {
            return Some(nodes);
        };
        let (units, want) = (units as u32, nodes.div_ceil(nodes_per_unit));
        if want > units {
            return None;
        }
        let mut k = 1;
        while k < want {
            k *= 2;
        }
        let mut widest = 1;
        while widest * 2 <= units {
            widest *= 2;
        }
        Some(if k > widest { units } else { k })
    }

    pub fn rounded_size(&self, nodes: Nodes) -> Nodes {
        match (self.rounded(nodes), &self.machine) {
            (None, _) => Nodes::MAX,
            (Some(n), Machine::Flat { .. }) => n,
            (Some(k), Machine::Blocks { nodes_per_unit, .. }) => k * nodes_per_unit,
        }
    }

    /// Where a request holding `len` (see [`Self::rounded`]) fits over
    /// `[start, end)`: `Some(0)` on a flat machine, the lowest aligned
    /// free block on a partitioned one.
    fn fit(&self, len: u32, start: SimTime, end: SimTime) -> Option<u16> {
        let live = self.held.iter().filter(|c| c.start < c.end);
        match &self.machine {
            Machine::Flat { total, down } => {
                let used_at = |t: SimTime| -> u32 {
                    live.clone()
                        .filter(|c| c.start <= t && t < c.end)
                        .map(|c| c.len)
                        .sum()
                };
                // Free capacity only drops where a commitment starts.
                let fits = std::iter::once(start)
                    .chain(
                        live.clone()
                            .map(|c| c.start)
                            .filter(|&s| start < s && s < end),
                    )
                    .all(|t| used_at(t) + len <= total - down);
                fits.then_some(0)
            }
            Machine::Blocks { units, down, .. } => {
                let mut busy = *down;
                for c in live.filter(|c| c.start < end && start < c.end) {
                    busy.set_range_naive(c.first, c.len as u16);
                }
                if len == *units as u32 {
                    busy.range_is_clear_naive(0, *units).then_some(0)
                } else {
                    busy.first_clear_aligned_block_naive(len as u16, *units)
                }
            }
        }
    }

    pub fn can_place_at(&self, nodes: Nodes, start: SimTime, duration: SimDuration) -> bool {
        self.rounded(nodes)
            .and_then(|len| self.fit(len, start, end_of(start, duration)))
            .is_some()
    }

    pub fn earliest_start(
        &self,
        nodes: Nodes,
        duration: SimDuration,
        not_before: SimTime,
    ) -> SimTime {
        let Some(len) = self.rounded(nodes) else {
            return SimTime::MAX;
        };
        // With nothing committed the request must fit at all.
        let empty = NaivePlan {
            held: Vec::new(),
            ..self.clone()
        };
        if empty
            .fit(len, self.now, end_of(self.now, duration))
            .is_none()
        {
            return SimTime::MAX;
        }
        let not_before = not_before.max(self.now);
        let mut ends: Vec<SimTime> = self
            .held
            .iter()
            .filter(|c| c.start < c.end && c.end > not_before)
            .map(|c| c.end)
            .collect();
        ends.sort_unstable();
        std::iter::once(not_before)
            .chain(ends)
            .find(|&t| self.fit(len, t, end_of(t, duration)).is_some())
            .expect("a job no larger than the machine fits after all releases")
    }

    pub fn commit_at(
        &mut self,
        nodes: Nodes,
        start: SimTime,
        duration: SimDuration,
    ) -> Option<NaiveToken> {
        let len = self.rounded(nodes)?;
        let end = end_of(start, duration);
        let first = self.fit(len, start, end)?;
        self.held.push(Held {
            first,
            len,
            start,
            end,
        });
        Some(NaiveToken(self.held.len() - 1))
    }

    /// [`Self::earliest_start`], then [`Self::commit_at`] there.
    pub fn place_earliest(
        &mut self,
        nodes: Nodes,
        duration: SimDuration,
        not_before: SimTime,
    ) -> Option<(SimTime, NaiveToken)> {
        let start = self.earliest_start(nodes, duration, not_before);
        if start == SimTime::MAX {
            return None;
        }
        let token = self
            .commit_at(nodes, start, duration)
            .expect("earliest_start returned an infeasible time");
        Some((start, token))
    }

    pub fn rollback(&mut self, token: NaiveToken) {
        assert!(
            token.0 >= self.base_len,
            "cannot roll back a base (running-job) commitment"
        );
        assert_eq!(token.0, self.held.len() - 1, "rollback must be LIFO");
        self.held.pop();
    }

    pub fn deactivate(&mut self, token: NaiveToken) {
        assert!(
            token.0 >= self.base_len,
            "cannot deactivate a base (running-job) commitment"
        );
        let c = &mut self.held[token.0];
        c.end = c.start;
    }

    pub fn hint_of(&self, token: &NaiveToken) -> PlacementHint {
        match self.machine {
            Machine::Flat { .. } => PlacementHint::default(),
            Machine::Blocks { .. } => {
                let c = &self.held[token.0];
                PlacementHint {
                    unit_start: c.first,
                    unit_len: c.len as u16,
                }
            }
        }
    }
}
