//! Property tests over the group-commit journal's segment codec — the
//! durability contract the serve tier acks against:
//!
//! * arbitrary batch sequences round-trip through append → recover,
//!   last write winning per key;
//! * any single truncation or bit flip makes recovery stop cleanly at
//!   the last valid frame: the surviving index is exactly the replay of
//!   some *prefix* of the appended batches — never a torn record, never
//!   garbage bytes, never a partially applied batch;
//! * a frame that passes its checksum but carries unknown flags is an
//!   acked batch this version cannot read, so recovery refuses to open
//!   rather than drop it.

use std::collections::HashMap;
use std::fs;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dri_store::hash::fnv64;
use dri_store::{Journal, JournalEntry, JournalOptions, ResultStore};
use proptest::prelude::*;

/// A fresh scratch root per proptest case (cases run sequentially but
/// must not see each other's segments).
fn temp_root(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!(
        "dri-journal-props-{tag}-{}-{case}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).expect("scratch root");
    root
}

const KINDS: [&str; 3] = ["dri", "decay", "way_memo"];

/// One journal entry from plain scalars (kind picked from the fixture
/// set the real push path uses).
fn entry(kind_pick: u8, schema: u32, key: u64, payload: Vec<u8>) -> JournalEntry {
    JournalEntry {
        kind: KINDS[kind_pick as usize % KINDS.len()].to_owned(),
        schema,
        key: key as u128,
        payload,
    }
}

/// Strategy: a batch of 1–4 entries.
fn batch() -> impl Strategy<Value = Vec<JournalEntry>> {
    prop::collection::vec(
        (
            any::<u8>(),
            1u32..3,
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..48),
        )
            .prop_map(|(k, s, key, p)| entry(k, s, key, p)),
        1..4,
    )
}

/// The last-write-wins index after replaying `batches[..upto]`.
fn expected_index(
    batches: &[Vec<JournalEntry>],
    upto: usize,
) -> HashMap<(String, u32, u128), Vec<u8>> {
    let mut index = HashMap::new();
    for batch in &batches[..upto] {
        for e in batch {
            index.insert((e.kind.clone(), e.schema, e.key), e.payload.clone());
        }
    }
    index
}

/// Does `journal` hold exactly `expected` (same keys, bit-identical
/// payloads)?
fn journal_matches(journal: &Journal, expected: &HashMap<(String, u32, u128), Vec<u8>>) -> bool {
    journal.depth() as usize == expected.len()
        && expected.iter().all(|((kind, schema, key), payload)| {
            journal
                .lookup(kind, *schema, *key)
                .is_some_and(|held| held[..] == payload[..])
        })
}

/// The single `.wal` segment under `root` (these tests disable rotation
/// so every frame lands in one file).
fn the_segment(root: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = fs::read_dir(root.join("journal"))
        .expect("journal dir")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    assert_eq!(segments.len(), 1, "one unrotated segment");
    segments.pop().expect("segment")
}

/// Journal options with rotation off (tests corrupt one known file).
fn options() -> JournalOptions {
    JournalOptions {
        max_segment_bytes: u64::MAX,
    }
}

proptest! {
    #[test]
    fn batch_sequences_roundtrip_through_recovery_and_compaction(
        batches in prop::collection::vec(batch(), 1..6),
    ) {
        let root = temp_root("roundtrip");
        let expected = expected_index(&batches, batches.len());

        let journal = Journal::open(&root, options()).expect("open");
        for batch in &batches {
            journal.append_batch(batch.clone()).expect("append");
        }
        // Visible the moment the append returned.
        prop_assert!(journal_matches(&journal, &expected), "pre-recovery index");
        drop(journal);

        // A clean restart replays everything.
        let recovered = Journal::open(&root, options()).expect("recover");
        prop_assert!(journal_matches(&recovered, &expected), "post-recovery index");

        // Compaction lands every record bit-identically in the store.
        let store = ResultStore::open(&root).expect("store");
        recovered.compact(&store).expect("compact");
        prop_assert_eq!(recovered.depth(), 0);
        for ((kind, schema, key), payload) in &expected {
            let served = store.load(kind, *schema, *key);
            prop_assert_eq!(
                served.as_deref(),
                Some(&payload[..]),
                "store serves {} {} {:x}", kind, schema, key
            );
        }
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn any_single_truncation_recovers_a_clean_batch_prefix(
        batches in prop::collection::vec(batch(), 1..6),
        cut_seed in any::<u64>(),
    ) {
        let root = temp_root("truncate");
        let journal = Journal::open(&root, options()).expect("open");
        for batch in &batches {
            journal.append_batch(batch.clone()).expect("append");
        }
        drop(journal);

        let segment = the_segment(&root);
        let full = fs::read(&segment).expect("segment bytes");
        let cut = (cut_seed % (full.len() as u64 + 1)) as usize;
        fs::write(&segment, &full[..cut]).expect("truncate");

        let recovered = Journal::open(&root, options()).expect("recover");
        let matched = (0..=batches.len()).any(|upto| {
            journal_matches(&recovered, &expected_index(&batches, upto))
        });
        prop_assert!(
            matched,
            "cut at {cut}/{} must leave an exact batch prefix, got depth {}",
            full.len(),
            recovered.depth()
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn any_single_bit_flip_recovers_a_clean_batch_prefix(
        batches in prop::collection::vec(batch(), 1..6),
        flip_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let root = temp_root("bitflip");
        let journal = Journal::open(&root, options()).expect("open");
        for batch in &batches {
            journal.append_batch(batch.clone()).expect("append");
        }
        drop(journal);

        let segment = the_segment(&root);
        let mut bytes = fs::read(&segment).expect("segment bytes");
        let at = (flip_seed % bytes.len() as u64) as usize;
        bytes[at] ^= 1 << bit;
        fs::write(&segment, &bytes).expect("corrupt");

        let recovered = Journal::open(&root, options()).expect("recover");
        let matched = (0..=batches.len()).any(|upto| {
            journal_matches(&recovered, &expected_index(&batches, upto))
        });
        prop_assert!(
            matched,
            "bit {bit} of byte {at}/{} flipped: recovery must stop at the \
             last valid frame, got depth {}",
            bytes.len(),
            recovered.depth()
        );
        let _ = fs::remove_dir_all(root);
    }

}

#[test]
fn a_checksum_valid_frame_with_unknown_flags_fails_open() {
    let root = temp_root("flags");
    let journal = Journal::open(&root, options()).expect("open");
    journal
        .append_batch(vec![entry(0, 1, 7, b"acked".to_vec())])
        .expect("append");
    drop(journal);

    // A second frame, checksum-valid, with flag bit 0 set: the shape an
    // older server wrote for a compressed body.
    let segment = the_segment(&root);
    let offset = fs::metadata(&segment).expect("segment").len();
    let body = b"an older server's compressed body";
    let mut frame = b"DRIJ".to_vec();
    frame.extend_from_slice(&1u32.to_le_bytes());
    frame.push(1);
    frame.extend_from_slice(&(body.len() as u64).to_le_bytes());
    frame.extend_from_slice(body);
    frame.extend_from_slice(&fnv64(&frame).to_le_bytes());
    fs::OpenOptions::new()
        .append(true)
        .open(&segment)
        .and_then(|mut file| file.write_all(&frame))
        .expect("append frame");

    let err = Journal::open(&root, options()).expect_err("unknown flags must fail open");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    let message = err.to_string();
    assert!(
        message.contains(&segment.display().to_string()),
        "names the segment: {message}"
    );
    assert!(
        message.contains(&format!("offset {offset}")),
        "names the offset: {message}"
    );
    let _ = fs::remove_dir_all(root);
}
