//! Cross-query priors move between trees without corrupting statistics:
//! extract from a trained tree, seed a fresh one, and the warm tree must
//! (a) start with the decayed round count, (b) preserve mean rewards, and
//! (c) keep exploiting the known-best first table.

use skinner_query::{JoinGraph, TableSet};
use skinner_uct::{TreePrior, UctConfig, UctTree};

fn star(n: usize) -> JoinGraph {
    JoinGraph::new(n, (1..n).map(|i| TableSet::from_iter([0, i])))
}

/// Train a sequential tree where starting at table 0 earns reward 1.
fn trained_tree(rounds: usize) -> UctTree {
    let mut t = UctTree::new(star(4), UctConfig::default());
    for _ in 0..rounds {
        let o = t.choose();
        let r = if o[0] == 0 { 1.0 } else { 0.1 };
        t.update(&o, r);
    }
    t
}

#[test]
fn sequential_roundtrip_preserves_rounds_and_means() {
    let t = trained_tree(400);
    let prior = t.extract_prior(64);
    assert_eq!(prior.num_tables, 4);
    assert_eq!(prior.root_visits(), 400);

    let mut warm = UctTree::new(star(4), UctConfig::default());
    let seeded = warm.seed_prior(&prior, 0.5);
    assert_eq!(seeded, 200);
    assert_eq!(warm.rounds(), 200);
    // Mean reward at the root survives decay exactly.
    assert!((warm.root_mean_reward() - t.root_mean_reward()).abs() < 1e-9);
    // The warm tree exploits the learned best first table immediately.
    assert_eq!(warm.best_order()[0], t.best_order()[0]);
}

#[test]
fn full_decay_ratio_keeps_all_statistics() {
    let t = trained_tree(100);
    let prior = t.extract_prior(1024);
    let mut warm = UctTree::new(star(4), UctConfig::default());
    assert_eq!(warm.seed_prior(&prior, 1.0), 100);
    assert_eq!(warm.rounds(), t.rounds());
    assert!((warm.root_mean_reward() - t.root_mean_reward()).abs() < 1e-9);
}

#[test]
fn mismatched_or_invalid_priors_are_ignored() {
    let t = trained_tree(100);
    let prior = t.extract_prior(64);
    // Wrong table count: refused wholesale.
    let mut other = UctTree::new(star(5), UctConfig::default());
    assert_eq!(other.seed_prior(&prior, 0.5), 0);
    assert_eq!(other.rounds(), 0);
    // Entries whose prefixes violate the target graph are skipped, valid
    // ones still land: a chain graph accepts [] but not the star's [0,1]
    // continuations that break its adjacency.
    let chain = JoinGraph::new(4, (0..3).map(|i| TableSet::from_iter([i, i + 1])));
    let bogus = TreePrior {
        num_tables: 4,
        entries: vec![
            skinner_uct::PriorEntry {
                prefix: vec![],
                visits: 10,
                reward_sum: 5.0,
            },
            skinner_uct::PriorEntry {
                prefix: vec![1, 3], // 3 is not adjacent to 1 in the chain
                visits: 4,
                reward_sum: 2.0,
            },
        ],
    };
    let mut warm = UctTree::new(chain, UctConfig::default());
    assert_eq!(warm.seed_prior(&bogus, 1.0), 10);
    assert_eq!(warm.rounds(), 10);
    assert_eq!(warm.num_nodes(), 2, "only the valid path materializes");
}

#[test]
fn truncation_is_bounded_and_ancestor_closed() {
    let t = trained_tree(500);
    let prior = t.extract_prior(8);
    assert!(prior.entries.len() <= 8);
    // Every kept entry's parent prefix is kept too.
    for e in &prior.entries {
        if e.prefix.is_empty() {
            continue;
        }
        let parent = &e.prefix[..e.prefix.len() - 1];
        assert!(
            prior.entries.iter().any(|p| p.prefix == parent),
            "entry {:?} lost its ancestor",
            e.prefix
        );
    }
}
