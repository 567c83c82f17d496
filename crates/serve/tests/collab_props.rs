//! Property: replaying *any* seeded interleaving of two writers
//! through the shared op log is deterministic — the replicas produce
//! the same frames on every run and at every replica count, because a
//! replica's world is a pure function of the log prefix it applied.
//!
//! Each [`differential`] pass independently proves every replica
//! byte-identical to the in-process reference for that seed; running
//! the same seed at two replica/shard shapes therefore proves the
//! frames identical *across* runs and replica counts too.

use atk_check::gen::interleaved_script;
use atk_serve::{differential, Script, ServedRun};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn replicated_replay_is_deterministic(seed in any::<u64>(), steps in 16usize..36) {
        let steps = interleaved_script("fig2", seed, 2, steps).unwrap();
        let shared = |watchers| Script::shared(2, watchers, steps.clone());
        let run = ServedRun::new("fig2");
        let two = differential(&run, &shared(0));
        prop_assert!(two.is_ok(), "2 replicas, 1 shard: {:?}", two.err());
        let four = differential(&ServedRun { shards: 2, ..run }, &shared(2));
        prop_assert!(four.is_ok(), "4 replicas, 2 shards: {:?}", four.err());
    }
}
