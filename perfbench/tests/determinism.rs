//! The same seed gives the same URL streams, verdicts and list; another
//! seed gives others.  The planted structure holds on every workload.

use std::collections::HashSet;

use perfbench::workload::{Inputs, Workload, CHURN_BATCH, LIST_SIZE, PAGE_URLS};
use perfbench::{DEFAULT_SEED, HELD_OUT_SEED};

const CLIENTS: usize = 2;
const TICKS: usize = 8;

fn generate(workload: Workload, seed: u64) -> Inputs {
    let clients = workload.clients(CLIENTS);
    Inputs::generate(workload, seed, clients, TICKS)
}

#[test]
fn the_same_seed_gives_identical_inputs() {
    for workload in Workload::ALL {
        let a = generate(workload, DEFAULT_SEED);
        let b = generate(workload, DEFAULT_SEED);
        assert_eq!(a.streams, b.streams, "{}", workload.name());
        assert_eq!(a.blacklisted, b.blacklisted, "{}", workload.name());
        assert_eq!(a.prefix_only, b.prefix_only, "{}", workload.name());
        assert_eq!(a.bulk, b.bulk, "{}", workload.name());
        assert_eq!(a.churn_adds, b.churn_adds, "{}", workload.name());
    }
}

#[test]
fn another_seed_gives_other_streams() {
    for workload in Workload::ALL {
        let a = generate(workload, DEFAULT_SEED);
        let b = generate(workload, HELD_OUT_SEED);
        assert_ne!(a.streams[0].urls, b.streams[0].urls, "{}", workload.name());
    }
}

#[test]
fn inputs_have_the_planted_shape() {
    for workload in Workload::ALL {
        let inputs = generate(workload, DEFAULT_SEED);
        let name = workload.name();
        assert_eq!(
            inputs.blacklisted.len() + inputs.prefix_only.len() + inputs.bulk.len(),
            LIST_SIZE,
            "{name}: the list holds exactly {LIST_SIZE} entries"
        );
        let distinct: HashSet<u32> = inputs
            .bulk
            .iter()
            .chain(&inputs.churn_adds)
            .copied()
            .collect();
        assert_eq!(distinct.len(), inputs.bulk.len() + inputs.churn_adds.len());
        let expected_churn = if workload == Workload::UpdateChurn {
            TICKS * CHURN_BATCH
        } else {
            0
        };
        assert_eq!(inputs.churn_adds.len(), expected_churn, "{name}");
        assert_eq!(inputs.streams.len(), workload.clients(CLIENTS), "{name}");
        for stream in &inputs.streams {
            assert_eq!(stream.check_size, workload.check_size());
            assert_eq!(stream.urls.len(), stream.passes() * stream.pass_urls());
            assert_eq!(stream.malicious.len(), stream.urls.len());
            for pass in 0..stream.passes() {
                let bad = (0..stream.pass_checks)
                    .flat_map(|c| stream.check(pass, c).1)
                    .filter(|&&m| m)
                    .count();
                match workload {
                    // One blacklisted and one prefix-only URL per page.
                    Workload::FullhashTcp => {
                        assert_eq!(bad, stream.pass_checks, "{name}");
                        assert_eq!(stream.pass_reveals[pass], 2 * stream.pass_checks);
                        assert_eq!(stream.check_size, PAGE_URLS);
                    }
                    // Every blacklisted site, a fixed number of times.
                    _ => {
                        assert!(bad > 0 && bad % inputs.blacklisted.len() == 0, "{name}");
                        assert_eq!(stream.pass_reveals[pass], inputs.blacklisted.len());
                    }
                }
            }
        }
    }
}
