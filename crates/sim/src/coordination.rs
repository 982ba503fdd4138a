use crate::{Sense, SenseSet};

/// The maneuver coordination channel between k aircraft.
///
/// Mirrors the mechanism of Section VI-C: "if the own-ship chooses a climb
/// maneuver, it will send a coordination command to the intruder to require
/// it not to choose maneuvers in the same direction." Each aircraft posts
/// the sense of its selected maneuver (or `None`) every step, and
/// [`commit`](Self::commit) latches the postings as the *clearances* other
/// aircraft see on the next step (one datalink latency). Ties are broken
/// by fixed priority: among aircraft holding the same sense, the lowest id
/// wins and the others are restricted — the transponder-address rule of
/// TCAS-style coordination.
///
/// Two read-out modes correspond to the two multi-aircraft equipage
/// configurations:
///
/// * [`restriction_between`](Self::restriction_between) — **pairwise
///   composition**: each aircraft coordinates only with its selected
///   threat, seeing the two-party rule for that pair: the threat's
///   clearance restricts `own` unless both hold the same sense and `own`
///   has the lower id. At k = 2 this is the paper's two-ship board.
/// * [`forbidden_set`](Self::forbidden_set) — **coordinated
///   deconfliction**: an aircraft is restricted from every sense some
///   higher-priority aircraft holds in force, across *all* traffic, which
///   can forbid both senses at once (hence [`SenseSet`]).
#[derive(Debug, Default)]
pub struct MultiCoordinationBoard {
    /// Per aircraft: the sense most recently *posted* (this step) and the
    /// sense clearance in force (from the last commit).
    slots: Vec<Slot>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    posted: Option<Sense>,
    committed: Option<Sense>,
}

impl Clone for MultiCoordinationBoard {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
    }
}

impl MultiCoordinationBoard {
    /// Creates an empty board for `n` aircraft.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (coordination needs at least a pair).
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "coordination needs at least two aircraft");
        Self {
            slots: vec![Slot::default(); n],
        }
    }

    /// Number of aircraft on the board.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the board is empty (never true for a constructed board).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Records that aircraft `id` selected a maneuver with `sense` this
    /// step (or `None` for clear of conflict).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn post(&mut self, id: usize, sense: Option<Sense>) {
        assert!(id < self.slots.len(), "aircraft id out of range");
        self.slots[id].posted = sense;
    }

    /// Commits this step's postings into next step's clearances and
    /// clears the posting slots.
    pub fn commit(&mut self) {
        for slot in &mut self.slots {
            slot.committed = slot.posted.take();
        }
    }

    /// The sense clearance aircraft `id` holds in force (what it posted
    /// on the last committed step).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn clearance(&self, id: usize) -> Option<Sense> {
        self.slots[id].committed
    }

    /// Pairwise read-out: the sense aircraft `own` must avoid when it
    /// coordinates only with aircraft `threat`. This is the two-party
    /// board's rule applied to the pair: `threat`'s clearance restricts
    /// `own`, except that a same-sense tie is won by the lower id.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range or `own == threat`.
    pub fn restriction_between(&self, own: usize, threat: usize) -> Option<Sense> {
        assert_ne!(own, threat, "an aircraft does not coordinate with itself");
        let theirs = self.slots[threat].committed?;
        if self.slots[own].committed == Some(theirs) && own < threat {
            // Same-sense tie: the lower id keeps the sense unrestricted.
            return None;
        }
        Some(theirs)
    }

    /// Coordinated read-out: every sense aircraft `own` must avoid given
    /// all clearances in force. A sense is forbidden when some other
    /// aircraft holds it and `own` is not the highest-priority (lowest-id)
    /// holder of that sense.
    ///
    /// # Panics
    ///
    /// Panics if `own` is out of range.
    pub fn forbidden_set(&self, own: usize) -> SenseSet {
        assert!(own < self.slots.len(), "aircraft id out of range");
        let mut forbidden = SenseSet::NONE;
        for sense in [Sense::Up, Sense::Down] {
            let winner = self
                .slots
                .iter()
                .position(|s| s.committed == Some(sense))
                .filter(|&w| w != own);
            if winner.is_some() {
                forbidden.insert(sense);
            }
        }
        forbidden
    }

    /// Clears all postings and clearances.
    pub fn reset(&mut self) {
        self.slots.fill(Slot::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a two-ship board shows aircraft `id`: the restriction its
    /// peer's clearance imposes.
    fn restriction_for(b: &MultiCoordinationBoard, id: usize) -> Option<Sense> {
        b.restriction_between(id, 1 - id)
    }

    #[test]
    fn posting_restricts_the_peer_after_commit() {
        let mut b = MultiCoordinationBoard::new(2);
        b.post(0, Some(Sense::Up));
        assert_eq!(restriction_for(&b, 1), None, "not in force until commit");
        b.commit();
        assert_eq!(restriction_for(&b, 1), Some(Sense::Up));
        assert_eq!(restriction_for(&b, 0), None);
    }

    #[test]
    fn clear_of_conflict_lifts_restriction() {
        let mut b = MultiCoordinationBoard::new(2);
        b.post(0, Some(Sense::Down));
        b.commit();
        assert_eq!(restriction_for(&b, 1), Some(Sense::Down));
        b.post(0, None);
        b.commit();
        assert_eq!(restriction_for(&b, 1), None);
    }

    #[test]
    fn same_sense_conflict_resolves_by_id() {
        let mut b = MultiCoordinationBoard::new(2);
        b.post(0, Some(Sense::Up));
        b.post(1, Some(Sense::Up));
        b.commit();
        assert_eq!(restriction_for(&b, 1), Some(Sense::Up), "id 1 yields");
        assert_eq!(restriction_for(&b, 0), None, "id 0 keeps its sense");
    }

    #[test]
    fn opposite_senses_coexist() {
        let mut b = MultiCoordinationBoard::new(2);
        b.post(0, Some(Sense::Up));
        b.post(1, Some(Sense::Down));
        b.commit();
        assert_eq!(restriction_for(&b, 0), Some(Sense::Down));
        assert_eq!(restriction_for(&b, 1), Some(Sense::Up));
        // Each is restricted from the *other's* sense, which they were not
        // using anyway: complementary maneuvers are undisturbed.
    }

    #[test]
    fn reset_clears_everything() {
        let mut b = MultiCoordinationBoard::new(2);
        b.post(0, Some(Sense::Up));
        b.commit();
        b.reset();
        assert_eq!(restriction_for(&b, 0), None);
        assert_eq!(restriction_for(&b, 1), None);
    }

    #[test]
    fn multi_board_matches_two_party_board_exhaustively() {
        // The two-ship rule, stated on its own: a posted sense restricts
        // the peer from the next step on, and a same-sense tie restricts
        // only aircraft 1. Both read-out modes of the k = 2 board must
        // reproduce it for every posting combination over two commits
        // (the second commit checks clearing/overwrite behavior too).
        let two_party = |p0: Option<Sense>, p1: Option<Sense>| match (p0, p1) {
            (Some(s0), Some(s1)) if s0 == s1 => [None, Some(s0)],
            _ => [p1, p0],
        };
        let options = [None, Some(Sense::Up), Some(Sense::Down)];
        for &a0 in &options {
            for &a1 in &options {
                for &b0 in &options {
                    for &b1 in &options {
                        let mut multi = MultiCoordinationBoard::new(2);
                        for (p0, p1) in [(a0, a1), (b0, b1)] {
                            multi.post(0, p0);
                            multi.post(1, p1);
                            multi.commit();
                            for (own, expect) in two_party(p0, p1).into_iter().enumerate() {
                                assert_eq!(
                                    multi.restriction_between(own, 1 - own),
                                    expect,
                                    "pairwise {own}: posts {p0:?}/{p1:?}"
                                );
                                assert_eq!(
                                    multi.forbidden_set(own),
                                    SenseSet::from_option(expect),
                                    "coordinated {own}: posts {p0:?}/{p1:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn multi_board_lowest_id_wins_same_sense() {
        let mut b = MultiCoordinationBoard::new(3);
        b.post(1, Some(Sense::Up));
        b.post(2, Some(Sense::Up));
        b.commit();
        // Aircraft 1 is the lowest-id holder of Up: unrestricted in the
        // pair with 2, restricted by nobody in coordinated mode.
        assert_eq!(b.restriction_between(1, 2), None);
        assert_eq!(b.forbidden_set(1), SenseSet::NONE);
        // Aircraft 2 loses the tie both ways.
        assert_eq!(b.restriction_between(2, 1), Some(Sense::Up));
        assert!(b.forbidden_set(2).contains(Sense::Up));
        // Aircraft 0 posted nothing: pairwise it sees each holder's
        // clearance; coordinated it must avoid Up (held by 1).
        assert_eq!(b.restriction_between(0, 1), Some(Sense::Up));
        assert_eq!(b.forbidden_set(0), SenseSet::from_option(Some(Sense::Up)));
    }

    #[test]
    fn multi_board_can_forbid_both_senses() {
        let mut b = MultiCoordinationBoard::new(3);
        b.post(0, Some(Sense::Up));
        b.post(1, Some(Sense::Down));
        b.commit();
        let f = b.forbidden_set(2);
        assert!(f.is_both(), "both senses held by higher-priority traffic");
        // Pairwise mode never sees more than one restriction at a time.
        assert_eq!(b.restriction_between(2, 0), Some(Sense::Up));
        assert_eq!(b.restriction_between(2, 1), Some(Sense::Down));
    }

    #[test]
    fn multi_board_commit_latency_and_reset() {
        let mut b = MultiCoordinationBoard::new(4);
        b.post(3, Some(Sense::Down));
        assert_eq!(b.clearance(3), None, "not in force until commit");
        b.commit();
        assert_eq!(b.clearance(3), Some(Sense::Down));
        // Nothing re-posted: the next commit clears the clearance.
        b.commit();
        assert_eq!(b.clearance(3), None);
        b.post(2, Some(Sense::Up));
        b.commit();
        b.reset();
        assert_eq!(b.clearance(2), None);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two aircraft")]
    fn multi_board_rejects_single_aircraft() {
        MultiCoordinationBoard::new(1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn multi_board_post_rejects_bad_id() {
        MultiCoordinationBoard::new(2).post(2, None);
    }

    #[test]
    #[should_panic(expected = "does not coordinate with itself")]
    fn multi_board_rejects_self_pair() {
        MultiCoordinationBoard::new(2).restriction_between(1, 1);
    }
}
