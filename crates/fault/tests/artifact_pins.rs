//! Byte pins for everything the durable stack writes.
//!
//! The benchmark's exact counters compare artifact *sizes* within one
//! binary; nothing else holds the *bytes* steady across two commits. This
//! drives the small vt stream through a replicating [`Supervisor`] and
//! pins, as FNV-1a values recorded before the committed state and the
//! open WAL segment were each reduced to one copy, every artifact it
//! produces: `PSMC` checkpoints, the committed `PSMW` working memory and
//! `PSMR` matcher snapshot, every `PSML` v2 segment the store serves and
//! the store's accounting (which covers the `PSMD` chain's sizes). A
//! refactor of the supervisor or the segment writer must leave all of
//! them alone.
//!
//! The pins that contain a `PSMR` image — the checkpoints, the committed
//! snapshot and the byte counts of the store's accounting — were
//! re-recorded once for `PSMR` v4 (every matcher memory written as one
//! section: entries once, chain links, chain heads; no index copies)
//! and once for `PSMR` v5 (a chain head keyed by the 32-bit fingerprint
//! of its node's whole index key: 8 bytes a head where a tagged value
//! made it 9 or 13). The image shrank both times, so every byte count
//! fell; the `PSMW` and `PSML` pins, the segment read counts and every
//! other count did not move.
//!
//! One count was re-recorded once more, and only downward: `delta_bytes`
//! (340 979 → 252 893 under the default store, 188 876 → 138 763 under
//! the rotating one) when a matcher snapshot began to copy the sections
//! of memories that had not changed and the `PSMD` diff to take those
//! copies as hints. What lies between two hinted ranges is diffed
//! against what lay between them in the parent image, and that matches
//! more than a block search of the whole parent image did. Every pin
//! that holds an image — checkpoints, committed snapshot, `full_bytes`
//! — stood through that change unedited: a snapshot that reuses
//! sections is byte-identical to one encoded from nothing.
//!
//! Under the default [`ReplicationConfig`] a vt batch never fills a
//! segment, so every sealed one is collected by the checkpoint that seals
//! it and only the open segment is ever served; the second run rotates
//! every 256 bytes so that sealed segments are served too.

use std::sync::Arc;

use ops5::Matcher;
use psm_fault::{ReplicationConfig, ReplicationStore, Supervisor, SupervisorConfig};
use psm_telemetry::replicate::ReplicaSource;
use workloads::{GeneratedWorkload, Preset, WorkloadDriver};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_into(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a_into(&mut hash, bytes);
    hash
}

const BATCHES: u64 = 64;
/// Batches after which `last_checkpoint().to_bytes()` is pinned.
const CHECKPOINT_AT: [u64; 3] = [8, 16, 64];

#[derive(Debug, PartialEq, Eq)]
struct Pins {
    /// `last_checkpoint().to_bytes()` after each of [`CHECKPOINT_AT`].
    checkpoints: [u64; 3],
    committed_wm: u64,
    committed_snapshot: u64,
    /// One running hash over `(seq, wal_segment(seq))` of every segment
    /// the store serves after every batch: the open segment at each of
    /// its fill states, and sealed ones for as long as they live.
    segment_stream: u64,
    /// How many segment reads went into `segment_stream`, and how many
    /// of them were of a sealed segment.
    segment_reads: (u64, u64),
    /// `(seq, fnv1a(wal_segment(seq)))` of the segments live at the end.
    segments: Vec<(u64, u64)>,
    /// `ReplicationStats`, field by field in declaration order.
    stats: [u64; 8],
}

fn run(replication: ReplicationConfig) -> Pins {
    let workload = GeneratedWorkload::generate(Preset::Vt.spec_small()).expect("vt generates");
    let config = SupervisorConfig {
        threads: 2,
        ..SupervisorConfig::default()
    };
    let mut sup = Supervisor::new(&workload.program, config).expect("compiles");
    let store = Arc::new(ReplicationStore::new(replication));
    sup.attach_replication(store.clone());
    let mut driver = WorkloadDriver::new(workload, 0x5EED);
    driver.init(&mut sup);

    // Sequence numbers are handed out densely from 0 and GC only drops
    // them, so probing every number up to the count ever created finds
    // every live segment.
    let served = |store: &ReplicationStore| -> Vec<(u64, Vec<u8>)> {
        let stats = store.stats();
        (0..=stats.segments as u64 + stats.segments_gced)
            .filter_map(|seq| Some((seq, store.wal_segment(seq)?)))
            .collect()
    };

    let mut checkpoints = Vec::new();
    let mut segment_stream = FNV_OFFSET;
    let mut segment_reads = (0, 0);
    for batch_no in 1..=BATCHES {
        let batch = driver.next_batch();
        sup.process(driver.working_memory(), &batch);
        driver.commit_batch(&batch);
        if CHECKPOINT_AT.contains(&batch_no) {
            checkpoints.push(fnv1a(&sup.last_checkpoint().to_bytes()));
        }
        let live = served(&store);
        assert_eq!(live.len(), store.stats().segments, "every live one served");
        for (i, (seq, bytes)) in live.iter().enumerate() {
            fnv1a_into(&mut segment_stream, &seq.to_le_bytes());
            fnv1a_into(&mut segment_stream, bytes);
            segment_reads.0 += 1;
            segment_reads.1 += u64::from(i + 1 < live.len());
        }
    }
    let stats = store.stats();
    Pins {
        checkpoints: checkpoints.try_into().expect("three sampled"),
        committed_wm: fnv1a(&sup.committed_wm_bytes()),
        committed_snapshot: fnv1a(sup.committed_snapshot().as_bytes()),
        segment_stream,
        segment_reads,
        segments: served(&store)
            .iter()
            .map(|(seq, bytes)| (*seq, fnv1a(bytes)))
            .collect(),
        stats: [
            stats.full_bytes,
            stats.full_count,
            stats.delta_bytes,
            stats.delta_count,
            stats.segments as u64,
            stats.wal_bytes as u64,
            stats.segments_gced,
            stats.primary_cycle,
        ],
    }
}

/// The supervisor's own artifacts do not depend on where it publishes.
///
/// Re-recorded once, for the two work counters in every image's stats
/// block that a join under a negative node moved when it began to probe
/// that node's chain (`join_tests` and `pairs_scanned`): before,
/// `0x0599_e717_c608_23d3`, `0x44d7_cc57_f597_cc5f` and
/// `0x8bd6_5c6f_8503_b607`, and `0x4127_36e6_6b9c_b97b` for the
/// committed snapshot. With the sequential matcher scanning such a join's
/// parent whole again, the run reproduces the old values.
const CHECKPOINTS: [u64; 3] = [
    0x6b1b_4c8c_59a2_7033,
    0x1717_4313_c4ae_e1ff,
    0x8487_cdb8_a606_d633,
];
const COMMITTED_WM: u64 = 0x9833_89d0_c84b_cbb3;
const COMMITTED_SNAPSHOT: u64 = 0x683f_5454_2a8c_3dc7;

#[test]
fn default_store_artifacts_are_byte_identical_to_the_recorded_run() {
    let pins = run(ReplicationConfig::default());
    assert_eq!(
        pins,
        Pins {
            checkpoints: CHECKPOINTS,
            committed_wm: COMMITTED_WM,
            committed_snapshot: COMMITTED_SNAPSHOT,
            segment_stream: 0x9724_a136_0403_05ff,
            segment_reads: (56, 0),
            segments: vec![(42, 0x17cb_b527_ddc7_79ad)],
            stats: [261_996, 6, 252_893, 37, 1, 648, 42, 339],
        }
    );
}

#[test]
fn rotating_store_serves_the_recorded_sealed_segments() {
    let pins = run(ReplicationConfig {
        max_segment_bytes: 256,
        anchor_every: 2,
    });
    assert_eq!(
        pins,
        Pins {
            checkpoints: CHECKPOINTS,
            committed_wm: COMMITTED_WM,
            committed_snapshot: COMMITTED_SNAPSHOT,
            segment_stream: 0x7301_d196_b8b5_56cb,
            segment_reads: (146, 90),
            segments: vec![(108, 0xbb00_0127_009e_72bb), (109, 0xc065_65c9_53ad_4518),],
            stats: [988_287, 22, 138_763, 21, 2, 664, 108, 339],
        }
    );
}
