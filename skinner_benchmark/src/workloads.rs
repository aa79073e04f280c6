//! The four workloads as data: which statements exist and in which order
//! each caller runs them in each pass, all derived from `--seed`. Nothing here calls
//! the engine; `layers.rs` turns a [`Plan`] into tables, servers and
//! executions, so the program under test receives only generated inputs.
//!
//! What the seed drives: the statement order of every pass of every
//! caller, and the key ranges of the disk queries. What it deliberately
//! does not drive: the *table contents*. On the JOB-like generator the work of
//! one pass ranges from 14 M to 51 M work units over twelve data seeds
//! (one 10-table query dominates, Zipf-skewed), which would bury every
//! regression bound under seed-to-seed spread; so data seeds are pinned
//! below and runs with different `--seed` values do the same work in a
//! different order and interleaving.

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// these sizes.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    JobServed,
    RepeatServed,
    TortureEmbedded,
    TpchDisk,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::JobServed,
        Kind::RepeatServed,
        Kind::TortureEmbedded,
        Kind::TpchDisk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::JobServed => "job_served",
            Kind::RepeatServed => "repeat_served",
            Kind::TortureEmbedded => "torture_embedded",
            Kind::TpchDisk => "tpch_disk",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Served workloads run one caller per connection, at most `nproc`
    /// and at most two; embedded ones run a single caller (`tpch_disk`
    /// spends its second core inside `parallel_skinner`).
    pub fn callers(self, nproc: usize) -> usize {
        match self {
            Kind::JobServed | Kind::RepeatServed => nproc.clamp(1, 2),
            Kind::TortureEmbedded | Kind::TpchDisk => 1,
        }
    }
}

/// Pinned data seeds and sizes (see the module comment for why).
pub const JOB_SCALE: f64 = 0.5;
pub const JOB_DATA_SEED: u64 = 0x10B;
pub const TPCH_SCALE: f64 = 0.01;
pub const TPCH_DATA_SEED: u64 = 0x7C4;
pub const STAR_FACT_ROWS: i64 = 4000;

/// One optimizer-torture instance; each gets a database of its own
/// because every generator names its tables `t0..tn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Torture {
    /// All non-Cartesian plans cost the same: pure exploration overhead.
    Trivial { tables: usize, rows: usize },
    /// Opaque UDF predicates, the one at `good` is always false.
    UdfChain {
        tables: usize,
        rows: usize,
        good: usize,
    },
    UdfStar {
        tables: usize,
        rows: usize,
        good: usize,
    },
    /// Uninformative statistics; the edge leaving table `m` is empty.
    Correlation {
        tables: usize,
        rows: usize,
        m: usize,
    },
}

/// The torture pass: 20 statements. Sizes keep the reference engine
/// (`Traditional`, which these instances are built to hurt) under its
/// work cap, so every answer can be checked. The UDF instances finish in
/// well under a millisecond once the empty edge is found; there are 8 of
/// them, so that the median statement is a correlation instance of some
/// 20 ms and not the boundary between the two groups.
pub const TORTURE: &[Torture] = &[
    Torture::Trivial {
        tables: 6,
        rows: 300,
    },
    Torture::Trivial {
        tables: 8,
        rows: 300,
    },
    Torture::Trivial {
        tables: 6,
        rows: 600,
    },
    Torture::Trivial {
        tables: 8,
        rows: 500,
    },
    Torture::UdfChain {
        tables: 6,
        rows: 12,
        good: 0,
    },
    Torture::UdfChain {
        tables: 6,
        rows: 12,
        good: 3,
    },
    Torture::UdfChain {
        tables: 6,
        rows: 12,
        good: 4,
    },
    Torture::UdfChain {
        tables: 8,
        rows: 6,
        good: 6,
    },
    Torture::UdfStar {
        tables: 6,
        rows: 12,
        good: 0,
    },
    Torture::UdfStar {
        tables: 6,
        rows: 12,
        good: 3,
    },
    Torture::UdfStar {
        tables: 6,
        rows: 12,
        good: 4,
    },
    Torture::UdfStar {
        tables: 8,
        rows: 6,
        good: 6,
    },
    Torture::Correlation {
        tables: 10,
        rows: 20_000,
        m: 0,
    },
    Torture::Correlation {
        tables: 10,
        rows: 20_000,
        m: 2,
    },
    Torture::Correlation {
        tables: 10,
        rows: 20_000,
        m: 4,
    },
    Torture::Correlation {
        tables: 10,
        rows: 20_000,
        m: 6,
    },
    Torture::Correlation {
        tables: 8,
        rows: 20_000,
        m: 3,
    },
    Torture::Correlation {
        tables: 10,
        rows: 50_000,
        m: 1,
    },
    Torture::Correlation {
        tables: 10,
        rows: 50_000,
        m: 3,
    },
    Torture::Correlation {
        tables: 8,
        rows: 50_000,
        m: 5,
    },
];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    pub name: String,
    pub sql: String,
    /// Index of the database the statement runs on (always 0 except for
    /// torture instances).
    pub db: usize,
    /// Goes through Prepare/Execute (served) or `Prepared` (embedded).
    pub prepared: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    pub callers: usize,
    pub statements: Vec<Statement>,
    /// The statement indices one pass executes, as a multiset in canonical
    /// order: the same for every caller, pass and seed, so both sides of
    /// a comparison do identical work per pass.
    pub slots: Vec<usize>,
}

impl Plan {
    /// The order in which `caller` executes the slots in its `pass`-th
    /// pass. Every pass is shuffled afresh from the seed, so within one
    /// run the medians already average over orders and interleavings, and
    /// runs with different seeds are different samples of the same thing.
    pub fn order(&self, caller: usize, pass: u64) -> Vec<usize> {
        let mut rng = Rng::new(
            self.seed
                ^ (caller as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)
                ^ (pass + 1).wrapping_mul(0xE703_7ED1_A0B4_28DB),
        );
        rng.next_u64();
        let mut order = self.slots.clone();
        rng.shuffle(&mut order);
        order
    }
}

fn statement(name: &str, sql: &str, db: usize, prepared: bool) -> Statement {
    Statement {
        name: name.to_string(),
        sql: sql.to_string(),
        db,
        prepared,
    }
}

/// `job_served`: the generator's 30 queries, once each per pass.
pub fn plan_job(seed: u64, queries: &[(String, String)], callers: usize) -> Plan {
    Plan {
        kind: Kind::JobServed,
        seed,
        callers,
        statements: queries
            .iter()
            .map(|(name, sql)| statement(name, sql, 0, false))
            .collect(),
        slots: (0..queries.len()).collect(),
    }
}

pub const STAR_LITERALS: [i64; 5] = [3, 4, 5, 6, 7];
/// Slots of one `repeat_served` pass: 80 % template, 20 % projection.
pub const REPEAT_SLOTS: usize = 100;

pub fn star_sql(lit: i64) -> String {
    format!(
        "SELECT d1.a, COUNT(*) c FROM fact f, d1, d2, d3 \
         WHERE f.k1 = d1.id AND f.k2 = d2.id AND f.k3 = d3.id AND d1.a < {lit} \
         GROUP BY d1.a ORDER BY d1.a"
    )
}

/// Half of `d1` passes `a < 6`, so half of `fact` comes back.
pub fn wide_sql() -> String {
    "SELECT f.k1, f.k2, f.k3, d1.a, d2.id, d3.id FROM fact f, d1, d2, d3 \
     WHERE f.k1 = d1.id AND f.k2 = d2.id AND f.k3 = d3.id AND d1.a < 6"
        .to_string()
}

/// `repeat_served`: 100 slots per pass, 80 of the star template with the
/// literal rotating over [`STAR_LITERALS`] and 20 wide projections; every
/// third slot goes through Prepare/Execute.
pub fn plan_repeat(seed: u64, callers: usize) -> Plan {
    // Statement index: literal position * 2 + prepared, then the two wides.
    let mut statements = Vec::new();
    for lit in STAR_LITERALS {
        statements.push(statement(&format!("star<{lit}"), &star_sql(lit), 0, false));
        statements.push(statement(
            &format!("star<{lit}/prep"),
            &star_sql(lit),
            0,
            true,
        ));
    }
    statements.push(statement("wide", &wide_sql(), 0, false));
    statements.push(statement("wide/prep", &wide_sql(), 0, true));
    let wide_base = STAR_LITERALS.len() * 2;
    let mut stars = 0;
    let slots = (0..REPEAT_SLOTS)
        .map(|slot| {
            let prepared = usize::from(slot % 3 == 0);
            if slot % 5 == 4 {
                wide_base + prepared
            } else {
                stars += 1;
                (stars % STAR_LITERALS.len()) * 2 + prepared
            }
        })
        .collect();
    Plan {
        kind: Kind::RepeatServed,
        seed,
        callers,
        statements,
        slots,
    }
}

/// `torture_embedded`: every instance once per pass. `scripts[i]` is the
/// SQL the generator produced for `TORTURE[i]`, which runs on database `i`.
pub fn plan_torture(seed: u64, scripts: &[(String, String)]) -> Plan {
    Plan {
        kind: Kind::TortureEmbedded,
        seed,
        callers: 1,
        statements: scripts
            .iter()
            .enumerate()
            .map(|(db, (name, sql))| statement(name, sql, db, true))
            .collect(),
        slots: (0..scripts.len()).collect(),
    }
}

/// `tpch_disk`: the generator's TPC-H scripts plus four clustered
/// key-range queries whose ranges start at seeded positions. `orders` is
/// the number of order keys (`0..orders`, both tables sorted by it).
pub fn plan_tpch(seed: u64, queries: &[(String, String)], orders: i64) -> Plan {
    let mut rng = Rng::new(seed ^ 0x5450_4348);
    let mut statements: Vec<Statement> = queries
        .iter()
        .map(|(name, sql)| statement(name, sql, 0, false))
        .collect();
    // A range of `share` of the key domain, starting anywhere it fits.
    let mut range = |share: f64| {
        let width = ((orders as f64 * share) as i64).max(1);
        let lo = rng.below((orders - width).max(1) as u64) as i64;
        (lo, lo + width - 1)
    };
    let (a, b) = range(0.01);
    let (c, d) = range(0.05);
    let (e, f) = range(0.10);
    let (g, h) = range(0.02);
    let ranges = [
        (
            "range-lineitem-1pct",
            format!("SELECT COUNT(*) c, SUM(l.l_quantity) q FROM lineitem l WHERE l.l_orderkey BETWEEN {a} AND {b}"),
        ),
        (
            "range-orders-5pct",
            format!("SELECT o.o_orderkey, o.o_totalprice FROM orders o WHERE o.o_orderkey BETWEEN {c} AND {d}"),
        ),
        (
            "range-lineitem-10pct",
            format!("SELECT l.l_shipmode, COUNT(*) c FROM lineitem l WHERE l.l_orderkey BETWEEN {e} AND {f} GROUP BY l.l_shipmode ORDER BY l.l_shipmode"),
        ),
        (
            "range-join-2pct",
            format!("SELECT COUNT(*) c FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o.o_orderkey BETWEEN {g} AND {h} AND l.l_orderkey BETWEEN {g} AND {h}"),
        ),
    ];
    for (name, sql) in &ranges {
        statements.push(statement(name, sql, 0, false));
    }
    Plan {
        kind: Kind::TpchDisk,
        seed,
        callers: 1,
        slots: (0..statements.len()).collect(),
        statements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_queries(n: usize) -> Vec<(String, String)> {
        (0..n)
            .map(|i| (format!("q{i}"), format!("SELECT {i}")))
            .collect()
    }

    fn sorted(mut v: Vec<usize>) -> Vec<usize> {
        v.sort_unstable();
        v
    }

    #[test]
    fn same_seed_same_statements_and_orders_other_seed_other_orders() {
        let q = fake_queries(30);
        let plans = |seed| {
            [
                plan_job(seed, &q, 2),
                plan_repeat(seed, 2),
                plan_torture(seed, &q),
                plan_tpch(seed, &q, 30_000),
            ]
        };
        for (a, (b, c)) in plans(1).iter().zip(plans(1).iter().zip(&plans(2))) {
            assert_eq!(a, b);
            for pass in 0..5 {
                assert_eq!(a.order(0, pass), b.order(0, pass));
                assert_ne!(a.order(0, pass), c.order(0, pass), "{:?}", a.kind);
            }
        }
        // The key ranges are the one thing the seed puts into statements.
        assert_ne!(plans(1)[3].statements, plans(2)[3].statements);
        assert_eq!(plans(1)[0].statements, plans(2)[0].statements);
    }

    #[test]
    fn every_pass_does_the_same_work_in_another_order() {
        let q = fake_queries(30);
        for seed in 0..20 {
            let job = plan_job(seed, &q, 2);
            assert_eq!(job.slots, (0..30).collect::<Vec<_>>());
            assert_ne!(job.order(0, 1), job.order(1, 1), "callers differ");
            assert_ne!(job.order(0, 1), job.order(0, 2), "passes differ");
            for plan in [
                job,
                plan_repeat(seed, 2),
                plan_torture(seed, &fake_queries(TORTURE.len())),
            ] {
                for pass in 0..4 {
                    assert_eq!(sorted(plan.order(1, pass)), sorted(plan.slots.clone()));
                }
            }
        }
    }

    #[test]
    fn repeat_mix_is_80_20_a_third_prepared_literals_even() {
        let rep = plan_repeat(9, 2);
        assert_eq!(rep.slots.len(), REPEAT_SLOTS);
        assert_eq!(rep.slots.iter().filter(|&&s| s >= 10).count(), 20);
        let prepared = rep.slots.iter().filter(|&&s| rep.statements[s].prepared);
        assert_eq!(prepared.count(), 34);
        for lit in 0..STAR_LITERALS.len() {
            let n = rep
                .slots
                .iter()
                .filter(|&&s| s < 10 && s / 2 == lit)
                .count();
            assert_eq!(n, 16);
        }
        assert_eq!(
            plan_torture(1, &fake_queries(TORTURE.len())).slots.len(),
            20
        );
        assert!(plan_torture(1, &fake_queries(3))
            .statements
            .iter()
            .enumerate()
            .all(|(i, s)| s.db == i));
    }

    #[test]
    fn key_ranges_stay_inside_the_key_domain() {
        for seed in 0..50 {
            let plan = plan_tpch(seed, &fake_queries(10), 30_000);
            assert_eq!(plan.statements.len(), 14);
            assert_eq!(plan.slots.len(), 14);
            for s in &plan.statements[10..] {
                let nums: Vec<i64> = s
                    .sql
                    .split(|c: char| !c.is_ascii_digit())
                    .filter_map(|t| t.parse().ok())
                    .collect();
                assert!(
                    !nums.is_empty() && nums.iter().all(|&n| n < 30_000),
                    "{}",
                    s.sql
                );
            }
        }
    }

    #[test]
    fn rng_is_stable_across_platforms() {
        let mut r = Rng::new(1);
        assert_eq!(r.next_u64(), 0x910A_2DEC_8902_5CC1);
        let mut v: Vec<u32> = (0..8).collect();
        Rng::new(42).shuffle(&mut v);
        let mut w: Vec<u32> = (0..8).collect();
        Rng::new(42).shuffle(&mut w);
        assert_eq!(v, w);
    }
}
