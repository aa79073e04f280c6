//! Cross-query learning on a repeated-template workload.
//!
//! The serving scenario the `learning_cache` knob exists for: the same
//! query *template* arrives over and over with different literals. With
//! the cache off, every execution learns its join order from scratch; with
//! it on, the second-and-later executions warm-start their UCT tree from
//! the previous run's decayed statistics and should lock onto the best
//! join order in measurably fewer episodes.
//!
//! Convergence measure: `last_order_switch` — the episode index after
//! which the engine executed one join order exclusively (reported by both
//! Skinner-C and `parallel_skinner`). Lower = faster lock-in. The report
//! compares it (plus work units and wall time) per repetition, cache on vs
//! off, for the sequential and the 4-thread parallel engine.
//!
//! Correctness is asserted, not assumed: for one representative literal
//! the experiment executes the template cache-on and cache-off at 1, 2, 4
//! and 8 worker threads and panics unless the result rows are bit-for-bit
//! identical — a panic fails the `bench-smoke` CI job.
//!
//! Raw numbers land in `bench_reports/BENCH_repeat_workload.json`.

use skinnerdb::skinner_core::{
    ParallelSkinnerConfig, ParallelSkinnerStrategy, SkinnerCConfig, SkinnerCStrategy,
};
use skinnerdb::{DataType, Database, ExecutionStrategy, TreeCacheConfig, Value};

use crate::harness::{human, markdown_table, write_report, Json, Scale};

/// Star schema whose best join order is clearly "filtered small dimension
/// first": a selective unary predicate on `d1` makes starting anywhere
/// else pay a large intermediate result.
fn build_db(scale: Scale) -> Database {
    let fact_rows = if scale.is_smoke() {
        1500
    } else {
        scale.pick(4000, 40_000)
    };
    let db = Database::new();
    db.create_table(
        "d1",
        &[("id", DataType::Int), ("a", DataType::Int)],
        (0..24)
            .map(|i| vec![Value::Int(i), Value::Int(i % 12)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "d2",
        &[("id", DataType::Int)],
        (0..240).map(|i| vec![Value::Int(i)]).collect(),
    )
    .unwrap();
    db.create_table(
        "d3",
        &[("id", DataType::Int)],
        (0..600).map(|i| vec![Value::Int(i)]).collect(),
    )
    .unwrap();
    db.create_table(
        "fact",
        &[
            ("k1", DataType::Int),
            ("k2", DataType::Int),
            ("k3", DataType::Int),
        ],
        (0..fact_rows)
            .map(|i| {
                vec![
                    Value::Int(i % 24),
                    Value::Int((i * 7) % 240),
                    Value::Int((i * 13) % 600),
                ]
            })
            .collect(),
    )
    .unwrap();
    db
}

/// The repeated template; `lit` is the varying literal.
fn sql(lit: i64) -> String {
    format!(
        "SELECT d1.a, COUNT(*) c FROM fact f, d1, d2, d3 \
         WHERE f.k1 = d1.id AND f.k2 = d2.id AND f.k3 = d3.id AND d1.a < {lit} \
         GROUP BY d1.a ORDER BY d1.a"
    )
}

struct Rep {
    lit: i64,
    cache_hit: bool,
    warm_start_visits: u64,
    episodes: u64,
    last_order_switch: u64,
    /// Episodes spent executing something other than the run's final
    /// (most-visited) order — the exploration cost warm starts amortize.
    off_order: u64,
    work: u64,
    wall_us: u64,
}

fn run_reps(db: &Database, strategy: &dyn ExecutionStrategy, reps: usize) -> Vec<Rep> {
    (0..reps)
        .map(|r| {
            let lit = 3 + (r as i64 % 5);
            let o = db
                .run_script(&sql(lit), strategy, &db.exec_context())
                .expect("bench query must run");
            assert!(!o.timed_out, "repeat_workload query timed out");
            let counter = |name| o.metrics.counter(name).unwrap_or(0);
            let best_count = o
                .metrics
                .order_slice_counts
                .first()
                .map(|(_, c)| *c)
                .unwrap_or(0);
            Rep {
                lit,
                cache_hit: counter("cache_hit") == 1,
                warm_start_visits: counter("warm_start_visits"),
                episodes: o.metrics.slices,
                last_order_switch: counter("last_order_switch"),
                off_order: o.metrics.slices.saturating_sub(best_count),
                work: o.work_units,
                wall_us: o.wall.as_micros() as u64,
            }
        })
        .collect()
}

/// Mean of `f` over the warm repetitions (2nd and later).
fn warm_mean(reps: &[Rep], f: impl Fn(&Rep) -> u64) -> f64 {
    if reps.len() < 2 {
        return 0.0;
    }
    let tail = &reps[1..];
    tail.iter().map(|r| f(r) as f64).sum::<f64>() / tail.len() as f64
}

/// Mean `last_order_switch` of the warm repetitions.
fn mean_lock_in(reps: &[Rep]) -> f64 {
    warm_mean(reps, |r| r.last_order_switch)
}

/// Mean off-final-order episodes of the warm repetitions.
fn mean_off_order(reps: &[Rep]) -> f64 {
    warm_mean(reps, |r| r.off_order)
}

fn render_section(name: &str, off: &[Rep], on: &[Rep], out: &mut String) {
    out.push_str(&format!("### {name}\n\n"));
    let mut rows = Vec::new();
    for (i, (a, b)) in off.iter().zip(on).enumerate() {
        rows.push(vec![
            format!("{} (a<{})", i + 1, a.lit),
            format!(
                "{} ep, lock {}, {} expl",
                a.episodes, a.last_order_switch, a.off_order
            ),
            human(a.work),
            format!(
                "{} ep, lock {}, {} expl{}",
                b.episodes,
                b.last_order_switch,
                b.off_order,
                if b.cache_hit { " (warm)" } else { "" }
            ),
            human(b.work),
            format!("{}", b.warm_start_visits),
        ]);
    }
    out.push_str(&markdown_table(
        &[
            "rep",
            "cache off",
            "work (off)",
            "cache on",
            "work (on)",
            "warm visits",
        ],
        &rows,
    ));
    let off_lock = mean_lock_in(off);
    let on_lock = mean_lock_in(on);
    let off_expl = mean_off_order(off);
    let on_expl = mean_off_order(on);
    out.push_str(&format!(
        "\nWarm repetitions (2nd+), cache off vs on: mean lock-in episode \
         {off_lock:.1} vs {on_lock:.1}; mean exploration episodes (off the \
         final order) {off_expl:.1} vs {on_expl:.1}{}.\n\n",
        if on_expl < off_expl {
            format!(
                " — **{:.1}x less exploration**",
                off_expl / on_expl.max(0.5)
            )
        } else {
            String::new()
        }
    ));
}

fn rep_list(reps: &[Rep]) -> Json {
    Json::Arr(
        reps.iter()
            .map(|r| {
                Json::obj([
                    ("lit", r.lit.into()),
                    ("cache_hit", r.cache_hit.into()),
                    ("warm_start_visits", r.warm_start_visits.into()),
                    ("episodes", r.episodes.into()),
                    ("last_order_switch", r.last_order_switch.into()),
                    ("work_units", r.work.into()),
                    ("wall_us", r.wall_us.into()),
                ])
            })
            .collect(),
    )
}

fn report(sections: &[(&str, &[Rep], &[Rep])], drift: &DriftOutcome) -> Json {
    let engines = sections.iter().map(|&(name, off, on)| {
        Json::obj([
            ("engine", name.into()),
            ("cache_off", rep_list(off)),
            ("cache_on", rep_list(on)),
            ("mean_lock_in_off", Json::Float(mean_lock_in(off), 2)),
            ("mean_lock_in_on", Json::Float(mean_lock_in(on), 2)),
        ])
    });
    Json::obj([
        ("engines", Json::Arr(engines.collect())),
        (
            "drift",
            Json::obj([
                ("quarantined_templates", drift.quarantines.into()),
                (
                    "cold_mean_episodes",
                    Json::Float(drift.cold_mean_episodes, 2),
                ),
                (
                    "post_quarantine_mean_episodes",
                    Json::Float(drift.post_quarantine_mean_episodes, 2),
                ),
                ("mutation_run_cold", drift.mutation_run_cold.into()),
                ("runs", rep_list(&drift.reps)),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------
// Drift variant: a workload whose warm starts MISLEAD.
// ---------------------------------------------------------------------

/// Schema for the drift workload: a fact joining two same-sized dimensions
/// with a filterable column each. The template `b1.a < l1 AND b2.a < l2`
/// alternates which dimension is selective, so the join order learned in
/// one phase is exactly wrong for the next — the adversarial case drift
/// detection exists for.
fn build_drift_db(scale: Scale) -> Database {
    let fact_rows = if scale.is_smoke() {
        1500
    } else {
        scale.pick(4000, 40_000)
    };
    let db = Database::new();
    // Same shape as `build_db`, but BOTH the small and the large dimension
    // carry a filterable column, so the selective side can flip.
    db.create_table(
        "b1",
        &[("id", DataType::Int), ("a", DataType::Int)],
        (0..24)
            .map(|i| vec![Value::Int(i), Value::Int(i % 12)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "d2",
        &[("id", DataType::Int)],
        (0..240).map(|i| vec![Value::Int(i)]).collect(),
    )
    .unwrap();
    db.create_table(
        "b3",
        &[("id", DataType::Int), ("a", DataType::Int)],
        (0..600)
            .map(|i| vec![Value::Int(i), Value::Int(i % 300)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "fact",
        &[
            ("k1", DataType::Int),
            ("k2", DataType::Int),
            ("k3", DataType::Int),
        ],
        (0..fact_rows)
            .map(|i| {
                vec![
                    Value::Int(i % 24),
                    Value::Int((i * 7) % 240),
                    Value::Int((i * 13) % 600),
                ]
            })
            .collect(),
    )
    .unwrap();
    db
}

/// One template, two literals: `(2, 300)` makes `b1` the selective side
/// (`b3.a < 300` passes everything), `(12, 2)` flips it to `b3`. The
/// template key normalizes literals, so both phases share one cache entry
/// — and warm-start each other, wrongly.
fn drift_sql(l1: i64, l3: i64) -> String {
    format!(
        "SELECT COUNT(*) c FROM fact f, b1, d2, b3 \
         WHERE f.k1 = b1.id AND f.k2 = d2.id AND f.k3 = b3.id \
         AND b1.a < {l1} AND b3.a < {l3}"
    )
}

struct DriftOutcome {
    reps: Vec<Rep>,
    /// Quarantines entered during the bimodal phase (from cache stats).
    quarantines: u64,
    /// Mean episode count of the pre-quarantine runs executed cold.
    cold_mean_episodes: f64,
    /// Mean episode count of the *cold* runs after the first quarantine
    /// fired — the rehabilitation window quarantine forces. Comparing
    /// cold-vs-cold proves quarantine restores baseline performance;
    /// warm runs after rehabilitation are excluded because the workload
    /// stays adversarial by construction and regresses them on purpose.
    post_quarantine_mean_episodes: f64,
    /// Did the run right after the data mutation execute cold?
    mutation_run_cold: bool,
}

/// Run the bimodal workload: alternate the selective dimension every
/// repetition so every warm start is misleading, then mutate `b1`'s data
/// and verify the next run refuses the stale prior.
fn run_drift(scale: Scale, reps: usize) -> DriftOutcome {
    let db = build_drift_db(scale);
    db.set_learning_cache(true);
    // Sticky priors on purpose: a high decay makes the misleading warm
    // start expensive to unlearn, which is exactly the regression signal
    // quarantine keys on. (Capacity/export defaults are fine.)
    db.set_learning_cache_config(TreeCacheConfig {
        decay: 0.9,
        ..Default::default()
    });
    // Fine-grained slices: at the default 500 steps the smoke-scale join
    // finishes in a handful of episodes, leaving no headroom for a
    // misleading prior to show up as extra episodes. 50 steps puts cold
    // convergence in the tens of episodes, where order quality dominates.
    let strategy = SkinnerCStrategy(SkinnerCConfig {
        slice_steps: 50,
        ..SkinnerCConfig::default()
    });
    let mut out = Vec::with_capacity(reps);
    let mut quarantined_at: Option<usize> = None;
    for r in 0..reps {
        let (l1, l3) = if r % 2 == 0 { (2, 300) } else { (12, 2) };
        let o = db
            .run_script(&drift_sql(l1, l3), &strategy, &db.exec_context())
            .expect("drift query must run");
        assert!(!o.timed_out, "drift query timed out");
        let counter = |name| o.metrics.counter(name).unwrap_or(0);
        let best_count = o
            .metrics
            .order_slice_counts
            .first()
            .map(|(_, c)| *c)
            .unwrap_or(0);
        out.push(Rep {
            lit: l1,
            cache_hit: counter("cache_hit") == 1,
            warm_start_visits: counter("warm_start_visits"),
            episodes: o.metrics.slices,
            last_order_switch: counter("last_order_switch"),
            off_order: o.metrics.slices.saturating_sub(best_count),
            work: o.work_units,
            wall_us: o.wall.as_micros() as u64,
        });
        if quarantined_at.is_none() && db.learning_cache_stats().quarantines > 0 {
            quarantined_at = Some(r);
        }
    }
    let quarantines = db.learning_cache_stats().quarantines;

    // Convergence cost = total episodes (the drift judge's metric): it
    // prices a sticky-but-wrong prior, which pins a bad order at episode
    // one and never shows up in the lock-in point.
    let mean = |rs: &[&Rep]| {
        if rs.is_empty() {
            0.0
        } else {
            rs.iter().map(|r| r.episodes as f64).sum::<f64>() / rs.len() as f64
        }
    };
    let cold: Vec<&Rep> = out
        .iter()
        .take(quarantined_at.map_or(out.len(), |q| q + 1))
        .filter(|r| !r.cache_hit)
        .collect();
    let post: Vec<&Rep> = match quarantined_at {
        Some(q) => out.iter().skip(q + 1).filter(|r| !r.cache_hit).collect(),
        None => Vec::new(),
    };
    let cold_mean_episodes = mean(&cold);
    let post_quarantine_mean_episodes = mean(&post);

    // Mutation act: replace b1 with different content. The drop observer
    // purges the template (by uid and name), so the next run must execute
    // cold — a prior learned on the old data is never served.
    db.create_table(
        "b1",
        &[("id", DataType::Int), ("a", DataType::Int)],
        (0..24)
            .map(|i| vec![Value::Int(i), Value::Int((i * 5) % 12)])
            .collect(),
    )
    .unwrap();
    let o = db
        .run_script(&drift_sql(2, 300), &strategy, &db.exec_context())
        .expect("post-mutation query must run");
    let mutation_run_cold = o.metrics.counter("cache_hit").unwrap_or(0) == 0;

    DriftOutcome {
        reps: out,
        quarantines,
        cold_mean_episodes,
        post_quarantine_mean_episodes,
        mutation_run_cold,
    }
}

fn render_drift(d: &DriftOutcome, out: &mut String) {
    out.push_str("### Drift: bimodal literals + data mutation\n\n");
    out.push_str(
        "The same template alternates which dimension is selective every\n\
         repetition, so each warm start seeds the *wrong* join order. Drift\n\
         detection must notice the warm-start regressions and quarantine the\n\
         template (runs go cold until the baseline re-establishes); a\n\
         mid-stream data mutation must purge the entry outright.\n\n",
    );
    let mut rows = Vec::new();
    for (i, r) in d.reps.iter().enumerate() {
        rows.push(vec![
            format!("{}", i + 1),
            if r.lit == 2 { "b1" } else { "b3" }.into(),
            if r.cache_hit { "warm" } else { "cold" }.into(),
            format!("{}", r.last_order_switch),
            format!("{}", r.episodes),
            human(r.work),
        ]);
    }
    out.push_str(&markdown_table(
        &["rep", "selective", "start", "lock-in", "episodes", "work"],
        &rows,
    ));
    out.push_str(&format!(
        "\nQuarantines: {}; cold mean episodes {:.1}; post-quarantine mean \
         episodes {:.1}; post-mutation run cold: {}.\n\n",
        d.quarantines, d.cold_mean_episodes, d.post_quarantine_mean_episodes, d.mutation_run_cold
    ));
}

/// Bit-identity guard: the template's rows must be byte-for-byte the same
/// cache-on vs cache-off at every thread count. Panics on divergence.
fn assert_thread_equivalence(scale: Scale) {
    let db_off = build_db(scale);
    let db_on = build_db(scale);
    db_on.set_learning_cache(true);
    let query = sql(5);
    let strategy = ParallelSkinnerStrategy(ParallelSkinnerConfig {
        batch_tuples: 256,
        ..Default::default()
    });
    for threads in [1usize, 2, 4, 8] {
        db_off.set_default_threads(threads);
        db_on.set_default_threads(threads);
        // Two runs on the warm side so the second actually consumes a
        // cached prior at this thread count.
        let a = db_off
            .run_script(&query, &strategy, &db_off.exec_context())
            .unwrap();
        db_on
            .run_script(&query, &strategy, &db_on.exec_context())
            .unwrap();
        let b = db_on
            .run_script(&query, &strategy, &db_on.exec_context())
            .unwrap();
        assert_eq!(
            a.result.rows, b.result.rows,
            "cache on/off rows diverged at {threads} threads"
        );
    }
    let a = db_off.session().run_script(&query).unwrap();
    let b = db_on.session().run_script(&query).unwrap();
    assert_eq!(a.result.rows, b.result.rows, "sequential rows diverged");
}

pub fn run(scale: Scale) -> String {
    let reps = if scale.is_smoke() {
        4
    } else {
        scale.pick(6, 10)
    };

    let mut out = String::from(
        "## Repeated-template workload — cross-query learning cache\n\n\
         The same query template executes repeatedly with varying literals.\n\
         `lock-in` is the episode index of the last join-order switch: after\n\
         it the engine ran one order exclusively. With `learning_cache` on,\n\
         repetitions 2+ warm-start from the previous run's decayed UCT\n\
         statistics (`warm visits` = seeded root visits) and should lock in\n\
         earlier; result rows are asserted bit-identical on vs off at 1, 2,\n\
         4 and 8 threads.\n\n",
    );

    // Sequential Skinner-C.
    let seq = SkinnerCStrategy::default();
    let db_off = build_db(scale);
    let seq_off = run_reps(&db_off, &seq, reps);
    let db_on = build_db(scale);
    db_on.set_learning_cache(true);
    let seq_on = run_reps(&db_on, &seq, reps);
    assert!(
        seq_on[1..].iter().all(|r| r.cache_hit),
        "warm repetitions must hit the template cache"
    );
    render_section("Skinner-C (sequential)", &seq_off, &seq_on, &mut out);

    // Parallel engine, 4 workers.
    // Small batches: enough episodes per run for convergence (and its
    // acceleration) to be observable on bench-scale data.
    let par = ParallelSkinnerStrategy(ParallelSkinnerConfig {
        batch_tuples: 64,
        min_chunk_tuples: 8,
        ..Default::default()
    });
    let db_off = build_db(scale);
    db_off.set_default_threads(4);
    let par_off = run_reps(&db_off, &par, reps);
    let db_on = build_db(scale);
    db_on.set_default_threads(4);
    db_on.set_learning_cache(true);
    let par_on = run_reps(&db_on, &par, reps);
    render_section("parallel_skinner (4 threads)", &par_off, &par_on, &mut out);

    // Drift: enough repetitions for two phase flips plus the quarantine's
    // cold window.
    let drift = run_drift(scale, if scale.is_smoke() { 10 } else { 12 });
    render_drift(&drift, &mut out);

    assert_thread_equivalence(scale);
    out.push_str("Thread equivalence check: rows bit-identical cache-on vs cache-off at 1/2/4/8 threads. ✔\n");

    let sections: [(&str, &[Rep], &[Rep]); 2] = [
        ("Skinner-C", &seq_off, &seq_on),
        ("parallel_skinner", &par_off, &par_on),
    ];
    out.push_str(&write_report("repeat_workload", &report(&sections, &drift)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_repetitions_hit_and_converge_no_worse() {
        let db = build_db(Scale::Smoke);
        db.set_learning_cache(true);
        let seq = SkinnerCStrategy::default();
        let reps = run_reps(&db, &seq, 3);
        assert!(!reps[0].cache_hit, "first execution is cold");
        assert!(reps[1].cache_hit && reps[2].cache_hit);
        assert!(reps[1].warm_start_visits > 0);
        // Convergence must not regress on warm runs (usually improves).
        assert!(
            reps[1].last_order_switch <= reps[0].last_order_switch,
            "warm lock-in {} vs cold {}",
            reps[1].last_order_switch,
            reps[0].last_order_switch
        );
    }

    #[test]
    fn thread_equivalence_guard_passes() {
        assert_thread_equivalence(Scale::Smoke);
    }

    #[test]
    fn json_shape_is_valid() {
        let rep = Rep {
            lit: 3,
            cache_hit: true,
            warm_start_visits: 10,
            episodes: 5,
            last_order_switch: 2,
            off_order: 1,
            work: 100,
            wall_us: 42,
        };
        let drift = DriftOutcome {
            reps: vec![],
            quarantines: 1,
            cold_mean_episodes: 4.0,
            post_quarantine_mean_episodes: 3.5,
            mutation_run_cold: true,
        };
        let text = report(&[("e", std::slice::from_ref(&rep), &[])], &drift).render();
        assert!(text.contains("\"cache_hit\": true"));
        assert!(text.contains("\"mean_lock_in_off\""));
        assert!(text.contains("\"quarantined_templates\": 1"));
        assert!(text.contains("\"mutation_run_cold\": true"));
    }

    /// The drift workload is the CI gate's substrate: on smoke scale the
    /// bimodal phase must quarantine the template at least once, the
    /// post-mutation run must execute cold, and the post-quarantine runs
    /// must not regress versus cold execution.
    #[test]
    fn drift_workload_quarantines_and_recovers_deterministically() {
        let d = run_drift(Scale::Smoke, 10);
        assert!(
            d.quarantines >= 1,
            "bimodal warm starts must trip quarantine: {:?}",
            d.reps
                .iter()
                .map(|r| (r.cache_hit, r.episodes, r.last_order_switch))
                .collect::<Vec<_>>()
        );
        assert!(d.mutation_run_cold, "data mutation must purge the template");
        // Post-quarantine runs execute mostly cold; their convergence must
        // be no worse than cold baseline (generous noise margin).
        assert!(
            d.post_quarantine_mean_episodes <= d.cold_mean_episodes * 1.5 + 8.0,
            "post-quarantine {} vs cold {}",
            d.post_quarantine_mean_episodes,
            d.cold_mean_episodes
        );
    }
}
