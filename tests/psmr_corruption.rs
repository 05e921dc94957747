//! Never-panic property of the `PSMR` decoder on a real image: whatever
//! happens to the bytes of a small-vt matcher snapshot — truncated
//! anywhere, any single byte changed — `ReteMatcher::restore` returns
//! `Err`, or a matcher every chain of which is sound. (Whether the
//! *contents* are the ones written is the CRC's business, a layer up;
//! this is about a decoder that neither panics, nor loops, nor trusts a
//! length field with an allocation.)

use psm::obs::Rng64;
use psm::rete::{ReteMatcher, ReteSnapshot};
use psm::workloads::{GeneratedWorkload, Preset, WorkloadDriver};

#[test]
fn restore_never_panics_on_a_damaged_image() {
    let workload = GeneratedWorkload::generate(Preset::Vt.spec_small()).unwrap();
    let mut driver = WorkloadDriver::new(workload, 0x5EED);
    let mut matcher = ReteMatcher::compile(&driver.workload().program).unwrap();
    driver.init(&mut matcher);
    driver.run_cycles(&mut matcher, 50);
    assert!(
        matcher.resident_index_buckets() > 100,
        "chains in the image"
    );
    let image = matcher.snapshot().as_bytes().to_vec();
    let network = matcher.network().clone();

    // `Some(sound)` when the bytes were accepted.
    let restore = |bytes: Vec<u8>| {
        let restored = ReteMatcher::restore(network.clone(), &ReteSnapshot::from_bytes(bytes));
        restored.ok().map(|restored| {
            // The audits walk every chain from its head, and restoring
            // the re-encoded state audits every link again.
            let filed = restored.resident_index_entries();
            let again = ReteMatcher::restore(network.clone(), &restored.snapshot());
            again.is_ok_and(|again| again.resident_index_entries() == filed)
        })
    };
    assert_eq!(restore(image.clone()), Some(true));

    let mut rng = Rng64::new(0xD15C);
    for _ in 0..40 {
        let keep = rng.gen_range(0..image.len());
        assert_eq!(restore(image[..keep].to_vec()), None, "cut at {keep}");
    }
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..250 {
        let mut bytes = image.clone();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= rng.gen_range(1..=255u32) as u8;
        match restore(bytes) {
            Some(sound) => {
                assert!(sound, "byte {at}: accepted with an unsound chain");
                accepted += 1;
            }
            None => rejected += 1,
        }
    }
    // A changed WME id is still a WME id; a changed link names an entry
    // something else names already, or none.
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");

    // Four bytes of `0xFF` laid across the first memory sections (after
    // the header, the node and alpha counts, the strategy byte and the
    // fourteen counters): wherever they cover a count it claims four
    // billion entries, and the decoder finds out by running off the
    // end, not by allocating them.
    let sections = 8 + 16 + 1 + 14 * 8;
    for at in (sections..image.len().min(sections + 1200)).step_by(3) {
        let mut bytes = image.clone();
        bytes[at..at + 4].fill(0xFF);
        assert_ne!(restore(bytes), Some(false), "0xFFFFFFFF at {at}");
    }
}
