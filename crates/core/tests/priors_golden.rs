//! Golden-byte pin of the learning cache's `learned_priors` sidecar: two
//! templates published through a real [`TreeCache`] and flushed through a
//! real [`DiskStore`]. A change to any byte here is a format change and
//! must bump `PRIORS_VERSION`; a codec refactor must leave the pin as it is.

use skinner_core::{QuerySig, RunFeedback, TreeCache, TreeCacheConfig};
use skinner_query::TemplateFeatures;
use skinner_storage::DiskStore;
use skinner_uct::{PriorEntry, TreePrior};

fn sig(k: u64) -> QuerySig {
    QuerySig {
        key: format!("t{k}"),
        uids: vec![k, k + 1],
        fingerprints: vec![k * 7919 + 1, k * 7919 + 2],
        buckets: vec![3, 4],
        features: TemplateFeatures {
            tables: vec![format!("f{k}"), "d".into()],
            unary_counts: vec![1, 0],
            n_equi: 1,
            n_theta: 2,
            n_select: 3,
            has_group: true,
            has_order: false,
            distinct: true,
            limited: false,
        },
    }
}

fn prior(visits: u64) -> TreePrior {
    TreePrior {
        num_tables: 2,
        entries: vec![
            PriorEntry {
                prefix: vec![],
                visits,
                reward_sum: visits as f64 * 0.25,
            },
            PriorEntry {
                prefix: vec![1],
                visits: visits / 2,
                reward_sum: visits as f64 * 0.125,
            },
        ],
    }
}

#[test]
fn learned_priors_sidecar_is_pinned() {
    let dir = std::env::temp_dir().join(format!("skinner_priors_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::open(&dir).unwrap();
    let cache = TreeCache::new(TreeCacheConfig::default());
    cache.attach_store(store);
    cache.publish(&sig(0), prior(10), RunFeedback::cold(5));
    cache.publish(&sig(1), prior(64), RunFeedback::cold(9));
    assert!(cache.flush());
    let bytes = std::fs::read(dir.join("learned_priors.side")).unwrap();
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "534b53494445310a01000000fe0000000000000002000000020000007430020002006630010000000000000003010001006402000000000000000400000100020003000501000000000000144000000000000000000000000000000000000000000000000000000000000200000002000000000a00000000000000000000000000044001010500000000000000000000000000f43f020000007431020002006631f01e000000000000030100010064f11e000000000000040000010002000300050100000000000022400000000000000000000000000000000000000000000000000000000000020000000200000000400000000000000000000000000030400101200000000000000000000000000020407441c3674ad1a76b"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
