//! Cross-query priors: export a finished tree's join-order statistics and
//! warm-start a fresh tree from them.
//!
//! SkinnerDB learns per query, so every execution of a recurring template
//! re-pays the exploration cost. A [`TreePrior`] is the transferable part
//! of a finished tree: its most-visited join-order *prefixes* with their
//! visit counts and reward sums. A new tree for the same template seeds
//! those statistics back in — scaled down by a decay factor, so stale
//! knowledge biases rather than dictates and fresh rewards can overturn it
//! quickly (Krishnan et al.'s lesson that transferred join-order knowledge
//! must stay revisable).
//!
//! Three invariants make priors safe to move from one [`crate::UctTree`]
//! (`extract_prior`) into another (`seed_prior`), whichever strategy ran
//! either tree:
//!
//! * **ancestor closure** — extraction sorts nodes by visits (descending)
//!   then depth and truncates; since every backup that touches a node also
//!   touches its ancestors, an ancestor's count is ≥ any descendant's, so
//!   the kept set always contains the full path to each kept node;
//! * **mean preservation** — decaying multiplies visits and scales the
//!   reward sum by the *same* ratio, so every seeded node starts with
//!   exactly its historical mean reward (UCT's exploitation term is
//!   unchanged; only its confidence shrinks);
//! * **graph validation** — seeding re-checks each prefix step against the
//!   target tree's join graph and silently skips entries that no longer
//!   fit, so a stale or foreign prior can never corrupt a tree.
//!
//! Seeded visits never round to zero (minimum 1 per kept entry): a child
//! the old tree visited stays "visited", which spares the warm tree the
//! mandatory try-every-unvisited-child sweep that cold trees pay at every
//! node.

use skinner_storage::codec::{Reader, Writer};

/// Most tables a persisted prior may cover (join orders index tables by
/// `u8` and prefixes track them in a `u64` bitset).
pub const MAX_PRIOR_TABLES: usize = 64;
/// Most entries a persisted prior may carry.
const MAX_PRIOR_ENTRIES: usize = 1 << 20;

/// One exported node: a join-order prefix with its accumulated statistics.
/// The root is the empty prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct PriorEntry {
    /// Tables of the join-order prefix, outermost first.
    pub prefix: Vec<u8>,
    pub visits: u64,
    pub reward_sum: f64,
}

/// Transferable join-order statistics of one finished UCT tree.
#[derive(Debug, Clone, Default)]
pub struct TreePrior {
    /// Number of tables of the query the tree searched over; seeding
    /// refuses priors whose table count does not match the target graph.
    pub num_tables: usize,
    /// Exported nodes, ancestor-closed (see module docs).
    pub entries: Vec<PriorEntry>,
}

impl TreePrior {
    /// Total visits recorded at the root of the exported tree (0 if the
    /// root was not exported — an empty tree).
    pub fn root_visits(&self) -> u64 {
        self.entries
            .iter()
            .find(|e| e.prefix.is_empty())
            .map_or(0, |e| e.visits)
    }

    /// Entries sorted shallowest-first, the order seeding must apply them
    /// in so ancestors materialize before their descendants.
    pub fn seeding_order(&self) -> Vec<&PriorEntry> {
        let mut entries: Vec<&PriorEntry> = self.entries.iter().collect();
        entries.sort_by_key(|e| e.prefix.len());
        entries
    }

    /// Approximate heap footprint in bytes (diagnostics only — the tree
    /// cache bounds by template count and export size, not bytes).
    pub fn byte_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .entries
                .iter()
                .map(|e| std::mem::size_of::<PriorEntry>() + e.prefix.len())
                .sum::<usize>()
    }

    /// Write this prior's canonical encoding: `u32 num_tables`, `u32 entry
    /// count`, then per entry `u8 prefix length` + prefix bytes + `u64
    /// visits` + `f64 reward_sum` — the payload half of the learning
    /// cache's on-disk format (the sidecar envelope frames and checksums
    /// it). A prior over the caps [`TreePrior::read`] enforces records
    /// oversize in `w`.
    pub fn write(&self, w: &mut Writer) {
        w.count(self.num_tables, MAX_PRIOR_TABLES, "prior table");
        w.count(self.entries.len(), MAX_PRIOR_ENTRIES, "prior entry");
        for e in &self.entries {
            w.check(e.prefix.len(), self.num_tables, "prefix length");
            w.u8(e.prefix.len() as u8);
            w.bytes(&e.prefix);
            w.u64(e.visits);
            w.f64(e.reward_sum);
        }
    }

    /// Read a prior written by [`TreePrior::write`]. Every structural
    /// invariant is re-validated — entry counts bounded, prefixes no
    /// longer than `num_tables` with in-range, duplicate-free table
    /// indices, finite non-negative rewards — so a hostile or corrupted
    /// payload is refused (`Err`) rather than smuggled into a tree.
    /// (Join-*graph* validation still happens at seed time, per tree; this
    /// is format validation.)
    pub fn read(r: &mut Reader) -> Result<TreePrior, String> {
        let num_tables = r.u32()? as usize;
        if num_tables == 0 || num_tables > MAX_PRIOR_TABLES {
            return Err(format!("implausible table count {num_tables}"));
        }
        let count = r.u32()? as usize;
        if count > MAX_PRIOR_ENTRIES {
            return Err(format!("implausible entry count {count}"));
        }
        let mut entries = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let len = r.u8()? as usize;
            if len > num_tables {
                return Err(format!("prefix length {len} exceeds {num_tables} tables"));
            }
            let prefix = r.take(len)?.to_vec();
            let mut seen = 0u64;
            for &t in &prefix {
                if t as usize >= num_tables || seen & (1 << t) != 0 {
                    return Err(format!("invalid table {t} in prefix"));
                }
                seen |= 1 << t;
            }
            let visits = r.u64()?;
            let reward_sum = r.f64()?;
            if !reward_sum.is_finite() || reward_sum < 0.0 {
                return Err("non-finite or negative reward sum".to_string());
            }
            entries.push(PriorEntry {
                prefix,
                visits,
                reward_sum,
            });
        }
        Ok(TreePrior {
            num_tables,
            entries,
        })
    }

    /// Append [`TreePrior::write`]'s encoding to `out`; a prior over the
    /// format's caps appends nothing.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::default();
        self.write(&mut w);
        out.extend(w.finish().unwrap_or_default());
    }

    /// [`TreePrior::read`] from `bytes` at `*pos`, advancing `*pos` past
    /// the prior.
    pub fn decode_from(bytes: &[u8], pos: &mut usize) -> Result<TreePrior, String> {
        let mut r = Reader::new(bytes.get(*pos..).ok_or("truncated prior")?);
        let prior = TreePrior::read(&mut r)?;
        *pos += r.pos();
        Ok(prior)
    }

    /// Sort collected entries by visits (descending) then depth and keep
    /// the `max_entries` hottest — the truncation rule whose tie-breaking
    /// keeps the set ancestor-closed.
    pub(crate) fn truncate_hottest(
        mut entries: Vec<PriorEntry>,
        max_entries: usize,
    ) -> Vec<PriorEntry> {
        entries.sort_by(|a, b| {
            b.visits
                .cmp(&a.visits)
                .then(a.prefix.len().cmp(&b.prefix.len()))
                .then(a.prefix.cmp(&b.prefix))
        });
        entries.truncate(max_entries);
        entries
    }
}

/// Decay one entry's statistics: visits scaled by `decay` (rounded, never
/// below 1 for a visited node), reward sum scaled by the same realized
/// ratio so the mean reward is preserved exactly. `None` for never-visited
/// entries — and for `decay <= 0`, which means "carry nothing over" and
/// must disable seeding entirely rather than floor every entry at one
/// visit.
pub(crate) fn decay_entry(e: &PriorEntry, decay: f64) -> Option<(u64, f64)> {
    if e.visits == 0 || decay <= 0.0 {
        return None;
    }
    let decay = decay.clamp(0.0, 1.0);
    let dv = ((e.visits as f64 * decay).round() as u64).max(1);
    let dr = e.reward_sum * (dv as f64 / e.visits as f64);
    Some((dv, dr))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(prefix: &[u8], visits: u64, reward_sum: f64) -> PriorEntry {
        PriorEntry {
            prefix: prefix.to_vec(),
            visits,
            reward_sum,
        }
    }

    #[test]
    fn decay_preserves_mean_and_floors_at_one() {
        let e = entry(&[0], 100, 80.0);
        let (dv, dr) = decay_entry(&e, 0.5).unwrap();
        assert_eq!(dv, 50);
        assert!((dr / dv as f64 - 0.8).abs() < 1e-12, "mean must survive");
        // A single historical visit never decays away.
        let tiny = entry(&[1], 1, 0.3);
        let (dv, dr) = decay_entry(&tiny, 0.25).unwrap();
        assert_eq!(dv, 1);
        assert!((dr - 0.3).abs() < 1e-12);
        assert!(decay_entry(&entry(&[2], 0, 0.0), 0.5).is_none());
        // decay 0 = carry nothing over: seeding is disabled, not floored.
        assert!(decay_entry(&entry(&[0], 100, 80.0), 0.0).is_none());
    }

    #[test]
    fn truncation_keeps_ancestors_of_kept_nodes() {
        // Parent visits always >= child visits (every backup touches the
        // ancestors), so the hottest-N rule keeps paths intact.
        let entries = vec![
            entry(&[], 10, 5.0),
            entry(&[0], 7, 4.0),
            entry(&[0, 1], 7, 4.0), // ties break towards the ancestor
            entry(&[2], 3, 0.5),
        ];
        let kept = TreePrior::truncate_hottest(entries, 3);
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].prefix, Vec::<u8>::new());
        assert_eq!(kept[1].prefix, vec![0]);
        assert_eq!(kept[2].prefix, vec![0, 1]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = TreePrior {
            num_tables: 4,
            entries: vec![
                entry(&[], 10, 5.5),
                entry(&[2], 7, 4.25),
                entry(&[2, 0, 3], 3, 0.125),
            ],
        };
        let mut bytes = vec![0xAB]; // leading junk the cursor must skip
        let mut pos = 1;
        p.encode_into(&mut bytes);
        let q = TreePrior::decode_from(&bytes, &mut pos).unwrap();
        assert_eq!(pos, bytes.len());
        assert_eq!(q.num_tables, 4);
        assert_eq!(q.entries, p.entries);
    }

    #[test]
    fn decode_refuses_malformed_payloads() {
        let p = TreePrior {
            num_tables: 3,
            entries: vec![entry(&[], 5, 1.0), entry(&[1, 0], 2, 0.5)],
        };
        let mut good = vec![];
        p.encode_into(&mut good);
        // Any truncation is refused.
        for cut in 0..good.len() {
            let mut pos = 0;
            assert!(
                TreePrior::decode_from(&good[..cut], &mut pos).is_err(),
                "truncation to {cut} must be refused"
            );
        }
        // Out-of-range table index in a prefix.
        let bad = TreePrior {
            num_tables: 2,
            entries: vec![entry(&[5], 1, 0.0)],
        };
        let mut bytes = vec![];
        bad.encode_into(&mut bytes);
        let mut pos = 0;
        assert!(TreePrior::decode_from(&bytes, &mut pos).is_err());
        // Duplicate table in a prefix.
        let dup = TreePrior {
            num_tables: 3,
            entries: vec![entry(&[1, 1], 1, 0.0)],
        };
        let mut bytes = vec![];
        dup.encode_into(&mut bytes);
        let mut pos = 0;
        assert!(TreePrior::decode_from(&bytes, &mut pos).is_err());
        // Non-finite reward bits.
        let nan = TreePrior {
            num_tables: 2,
            entries: vec![entry(&[0], 1, f64::NAN)],
        };
        let mut bytes = vec![];
        nan.encode_into(&mut bytes);
        let mut pos = 0;
        assert!(TreePrior::decode_from(&bytes, &mut pos).is_err());
        // Zero tables.
        let mut pos = 0;
        assert!(TreePrior::decode_from(&[0, 0, 0, 0, 0, 0, 0, 0], &mut pos).is_err());
    }

    #[test]
    fn seeding_order_is_shallowest_first() {
        let p = TreePrior {
            num_tables: 3,
            entries: vec![
                entry(&[0, 1], 1, 0.0),
                entry(&[], 5, 1.0),
                entry(&[0], 2, 0.0),
            ],
        };
        let order: Vec<usize> = p.seeding_order().iter().map(|e| e.prefix.len()).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(p.root_visits(), 5);
        assert!(p.byte_size() > 0);
    }
}
