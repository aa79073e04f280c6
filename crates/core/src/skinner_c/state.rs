//! Execution-state backup, restore, and cross-order progress sharing.
//!
//! The progress tracker realizes the paper's `BackupState`/`RestoreState`
//! (Algorithm 3) including both sharing mechanisms of Section 4.5:
//!
//! * exact per-join-order states (a trie-backed map: one tuple-index cursor
//!   per table plus the depth-first position), and
//! * prefix sharing: for every join-order *prefix* visited, the
//!   lexicographically most advanced cursor is kept; restoring an order
//!   "fast-forwards" through the best state of any other order sharing a
//!   prefix.
//!
//! Cursor semantics differ slightly from the paper's pseudo-code: our state
//! `(s, depth)` fixes rows at positions `< depth` and treats `s[order[depth]]`
//! as the *next candidate to test*. Under these half-open semantics the
//! paper's merged state `s''_p = s_p − 1` (re-entering the last fully
//! processed subtree) becomes simply "resume with candidate `s_p` at the
//! merge position and offsets below" — the same set of result tuples is
//! skipped, and re-derived duplicates are eliminated by the result set.

use std::cmp::Ordering;
use std::collections::HashMap;

use skinner_storage::RowId;

/// A join order as a byte string — the key of per-order maps — built on the
/// stack: the slice loop looks orders up every slice and must not allocate
/// to do so. Table positions fit a byte (`TableSet` caps a query at 64).
pub struct OrderKey {
    bytes: [u8; 64],
    len: usize,
}

impl OrderKey {
    pub fn new(order: &[usize]) -> Self {
        let mut bytes = [0u8; 64];
        for (b, &t) in bytes.iter_mut().zip(order) {
            *b = t as u8;
        }
        OrderKey {
            bytes,
            len: order.len(),
        }
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Depth-first cursor of the multi-way join for one join order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinState {
    /// Current row per *table position* (indexed by table id, not by join
    /// order position).
    pub s: Vec<RowId>,
    /// Current join-order position. Rows at positions `< depth` are fixed
    /// and satisfy all predicates applicable on their prefix;
    /// `s[order[depth]]` is the next candidate row.
    pub depth: usize,
}

impl JoinState {
    /// Fresh state: every cursor at its table offset, depth 0.
    pub fn fresh(offsets: &[RowId]) -> Self {
        JoinState {
            s: offsets.to_vec(),
            depth: 0,
        }
    }

    /// Overwrite with `other`, reusing this state's buffer.
    pub fn copy_from(&mut self, other: &JoinState) {
        self.s.clear();
        self.s.extend_from_slice(&other.s);
        self.depth = other.depth;
    }

    /// Element `i` of the comparable progress vector for `order`: the
    /// cursor at order position `i`, with positions beyond `depth` replaced
    /// by `offsets` (their stored values are stale).
    #[inline]
    fn resume_at(&self, i: usize, order: &[usize], offsets: &[RowId]) -> RowId {
        let t = order[i];
        if i <= self.depth {
            self.s[t]
        } else {
            offsets[t]
        }
    }
}

#[derive(Debug, Default)]
struct TrieNode {
    /// Children by table position; a node has at most one per table.
    children: Vec<(u8, TrieNode)>,
    /// Lexicographically best cursor values for this exact prefix sequence
    /// (one per prefix position); empty until a backup reaches the node.
    best: Vec<RowId>,
}

impl TrieNode {
    fn child(&self, t: u8) -> Option<&TrieNode> {
        self.children.iter().find(|(c, _)| *c == t).map(|(_, n)| n)
    }
}

/// Backup/restore of join states with prefix sharing. Steady-state backups
/// and restores (orders and prefixes seen before) allocate nothing.
#[derive(Debug)]
pub struct ProgressTracker {
    exact: HashMap<Box<[u8]>, JoinState>,
    root: TrieNode,
    sharing: bool,
    num_tables: usize,
    trie_nodes: usize,
}

impl ProgressTracker {
    pub fn new(num_tables: usize, sharing: bool) -> Self {
        ProgressTracker {
            exact: HashMap::new(),
            root: TrieNode::default(),
            sharing,
            num_tables,
            trie_nodes: 1,
        }
    }

    /// `BackupState`: record the state reached by `order`.
    pub fn backup(&mut self, order: &[usize], state: &JoinState) {
        let key = OrderKey::new(order);
        match self.exact.get_mut(key.as_bytes()) {
            Some(stored) => stored.copy_from(state),
            None => {
                self.exact.insert(key.as_bytes().into(), state.clone());
            }
        }
        if !self.sharing {
            return;
        }
        // Update per-prefix bests for every valid prefix (fixed rows plus
        // the in-progress candidate position).
        let mut node = &mut self.root;
        for (i, &t) in order.iter().enumerate().take(state.depth + 1) {
            let at = match node.children.iter().position(|(c, _)| *c == t as u8) {
                Some(at) => at,
                None => {
                    self.trie_nodes += 1;
                    node.children.push((t as u8, TrieNode::default()));
                    node.children.len() - 1
                }
            };
            node = &mut node.children[at].1;
            let cursor = order[..=i].iter().map(|&t| state.s[t]);
            if node.best.is_empty() || cursor.clone().gt(node.best.iter().copied()) {
                node.best.clear();
                node.best.extend(cursor);
            }
        }
    }

    /// [`Self::restore_into`] a newly allocated state.
    pub fn restore(&self, order: &[usize], offsets: &[RowId]) -> JoinState {
        let mut out = JoinState::fresh(offsets);
        self.restore_into(order, offsets, &mut out);
        out
    }

    /// `RestoreState`: write into `out` the most advanced sound state for
    /// `order`, taking into account its own exact state, prefix donations
    /// from other orders, and the global offsets.
    pub fn restore_into(&self, order: &[usize], offsets: &[RowId], out: &mut JoinState) {
        // Start from the fresh state; a candidate replaces `out` only if
        // its progress vector is strictly greater — or, for the order's own
        // exact state, equal but deeper: a slice that only descended leaves
        // every row at its offset, and the rows it fixed were checked on the
        // way down, so resuming there is sound and discarding it would start
        // such slices over forever.
        out.s.clear();
        out.s.extend_from_slice(offsets);
        out.depth = 0;
        let m = order.len();

        if let Some(exact) = self.exact.get(OrderKey::new(order).as_bytes()) {
            let progress = (0..m)
                .map(|i| exact.resume_at(i, order, offsets))
                .cmp((0..m).map(|i| offsets[order[i]]));
            if progress.is_gt() || (progress.is_eq() && exact.depth > 0) {
                out.copy_from(exact);
            }
        }

        if self.sharing {
            let mut node = &self.root;
            for (k, &tk) in order.iter().enumerate() {
                let Some(child) = node.child(tk as u8) else {
                    break;
                };
                node = child;
                if node.best.is_empty() {
                    continue;
                }
                // Fast-forward: fixed rows at positions < k, the donor's
                // position-k value as candidate (clamped up to the current
                // offset), offsets below.
                let b = &node.best;
                let donated = |i: usize| match i.cmp(&k) {
                    Ordering::Less => b[i],
                    Ordering::Equal => b[k].max(offsets[tk]),
                    Ordering::Greater => offsets[order[i]],
                };
                let ahead = (0..m)
                    .map(donated)
                    .gt((0..m).map(|i| out.resume_at(i, order, offsets)));
                if ahead {
                    out.s.copy_from_slice(offsets);
                    for (i, &ti) in order.iter().enumerate().take(k + 1) {
                        out.s[ti] = donated(i);
                    }
                    out.depth = k;
                }
            }
        }
    }

    /// Number of trie nodes (Figure 8b's progress-tracker size).
    pub fn num_trie_nodes(&self) -> usize {
        self.trie_nodes
    }

    /// Number of exact states stored.
    pub fn num_states(&self) -> usize {
        self.exact.len()
    }

    /// Approximate heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        let exact: usize = self
            .exact
            .iter()
            .map(|(k, v)| k.len() + v.s.len() * 4 + 24)
            .sum();
        exact + self.trie_nodes * (self.num_tables * 4 + 48)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(m: usize) -> ProgressTracker {
        ProgressTracker::new(m, true)
    }

    fn restore(t: &ProgressTracker, order: &[usize], offsets: &[RowId]) -> JoinState {
        // A dirty, wrongly sized buffer: restore must overwrite all of it.
        let mut out = JoinState {
            s: vec![77; 9],
            depth: 5,
        };
        t.restore_into(order, offsets, &mut out);
        out
    }

    #[test]
    fn fresh_when_nothing_stored() {
        let t = tracker(3);
        let st = restore(&t, &[0, 1, 2], &[4, 5, 6]);
        assert_eq!(st.s, vec![4, 5, 6]);
        assert_eq!(st.depth, 0);
    }

    #[test]
    fn exact_roundtrip() {
        let mut t = tracker(3);
        let state = JoinState {
            s: vec![7, 2, 9],
            depth: 2,
        };
        t.backup(&[0, 1, 2], &state);
        let r = restore(&t, &[0, 1, 2], &[0, 0, 0]);
        assert_eq!(r, state);
    }

    #[test]
    fn prefix_sharing_fast_forwards() {
        let mut t = tracker(4);
        // Order A = [0,1,2,3] progressed far: fixed 0→50, 1→10, candidate 2→3.
        let state_a = JoinState {
            s: vec![50, 10, 3, 0],
            depth: 2,
        };
        t.backup(&[0, 1, 2, 3], &state_a);
        // Order B = [0,1,3,2] shares prefix [0,1]; it should fast-forward to
        // fixed 0→50, candidate 1→10.
        let r = restore(&t, &[0, 1, 3, 2], &[0, 0, 0, 0]);
        assert_eq!(r.depth, 1);
        assert_eq!(r.s[0], 50);
        assert_eq!(r.s[1], 10);
        // Positions beyond the merge point restart at offsets.
        assert_eq!(r.s[3], 0);
    }

    #[test]
    fn own_exact_state_beats_shorter_prefix_donation() {
        let mut t = tracker(3);
        let own = JoinState {
            s: vec![80, 4, 1],
            depth: 2,
        };
        t.backup(&[0, 1, 2], &own);
        let other = JoinState {
            s: vec![70, 9, 9],
            depth: 1,
        };
        t.backup(&[0, 2, 1], &other);
        let r = restore(&t, &[0, 1, 2], &[0, 0, 0]);
        // Own state has s[0]=80 > 70 from the donor → keep own.
        assert_eq!(r, own);
    }

    #[test]
    fn donor_ahead_of_own_state_wins() {
        let mut t = tracker(3);
        let own = JoinState {
            s: vec![10, 4, 1],
            depth: 2,
        };
        t.backup(&[0, 1, 2], &own);
        // A different order with the same first table got much further.
        let donor = JoinState {
            s: vec![90, 0, 5],
            depth: 1,
        };
        t.backup(&[0, 2, 1], &donor);
        let r = restore(&t, &[0, 1, 2], &[0, 0, 0]);
        assert_eq!(r.depth, 0);
        assert_eq!(r.s[0], 90);
    }

    #[test]
    fn deeper_state_at_the_offsets_is_kept() {
        let mut t = tracker(3);
        // A slice that only descended: every row still at its offset.
        let descended = JoinState {
            s: vec![4, 0, 2],
            depth: 2,
        };
        t.backup(&[0, 1, 2], &descended);
        assert_eq!(restore(&t, &[0, 1, 2], &[4, 0, 2]), descended);
        // Once the offsets move past it, it is stale.
        let r = restore(&t, &[0, 1, 2], &[5, 0, 2]);
        assert_eq!(r, JoinState::fresh(&[5, 0, 2]));
    }

    #[test]
    fn offsets_clamp_the_candidate_position() {
        let mut t = tracker(2);
        let state = JoinState {
            s: vec![3, 0],
            depth: 0,
        };
        t.backup(&[0, 1], &state);
        // Offset for table 0 advanced past the stored candidate.
        let r = restore(&t, &[0, 1], &[7, 0]);
        assert_eq!(r.s[0], 7);
    }

    #[test]
    fn sharing_disabled_only_restores_exact() {
        let mut t = ProgressTracker::new(3, false);
        let donor = JoinState {
            s: vec![90, 1, 1],
            depth: 1,
        };
        t.backup(&[0, 1, 2], &donor);
        // A different order gets nothing.
        let r = restore(&t, &[0, 2, 1], &[0, 0, 0]);
        assert_eq!(r, JoinState::fresh(&[0, 0, 0]));
        assert_eq!(t.num_trie_nodes(), 1); // only the root
    }

    #[test]
    fn stale_deep_positions_are_ignored_in_comparison() {
        let mut t = tracker(3);
        // depth 0: only position 0 is meaningful; s[1], s[2] are stale noise.
        let a = JoinState {
            s: vec![5, 999, 999],
            depth: 0,
        };
        t.backup(&[0, 1, 2], &a);
        let b = restore(&t, &[0, 1, 2], &[0, 0, 0]);
        assert_eq!(b.depth, 0);
        assert_eq!(b.s[0], 5);
    }

    #[test]
    fn trie_size_accounting() {
        let mut t = tracker(3);
        assert_eq!(t.num_trie_nodes(), 1);
        t.backup(
            &[0, 1, 2],
            &JoinState {
                s: vec![1, 1, 1],
                depth: 2,
            },
        );
        assert_eq!(t.num_trie_nodes(), 4); // root + 3 path nodes
        t.backup(
            &[0, 2, 1],
            &JoinState {
                s: vec![1, 1, 1],
                depth: 2,
            },
        );
        assert_eq!(t.num_trie_nodes(), 6); // shares the [0] node
        assert!(t.byte_size() > 0);
        assert_eq!(t.num_states(), 2);
    }
}
