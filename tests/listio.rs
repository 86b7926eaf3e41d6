//! Conformance suite for `ReadList` region lists: the validation rules a
//! server applies before acting on a list, and the wire size a client
//! charges the network for one.

use parblast::pvfs::{list_req_wire_bytes, validate_regions, ListFrameError, Region};
use proptest::prelude::*;

/// One aggregated request costs a 33-byte header plus 16 bytes per
/// region: the charge every simulated list read puts on the network.
#[test]
fn wire_bytes_are_a_33_byte_header_plus_16_per_region() {
    assert_eq!(list_req_wire_bytes(1), 33 + 16);
    assert_eq!(list_req_wire_bytes(2), 65);
    assert_eq!(list_req_wire_bytes(32), 33 + 32 * 16);
}

#[test]
fn validation_rejects_malformed_lists() {
    assert_eq!(validate_regions(&[]), Err(ListFrameError::Empty));
    assert_eq!(
        validate_regions(&[Region::new(0, 8), Region::new(8, 0)]),
        Err(ListFrameError::ZeroLen(1))
    );
    assert_eq!(
        validate_regions(&[Region::new(100, 8), Region::new(0, 8)]),
        Err(ListFrameError::Unsorted(1))
    );
    assert_eq!(
        validate_regions(&[Region::new(0, 16), Region::new(8, 8)]),
        Err(ListFrameError::Overlap(1))
    );
    // Adjacent regions are legal: stripe boundaries may stay visible.
    assert_eq!(
        validate_regions(&[Region::new(0, 8), Region::new(8, 8)]),
        Ok(())
    );
}

/// Strategy: a well-formed region list — sorted, non-overlapping,
/// no zero lengths — built by walking a cursor forward with random
/// gaps (gap 0 exercises the legal adjacent case). Gap and length are
/// unpacked from one random word per region.
fn region_list() -> impl Strategy<Value = Vec<Region>> {
    proptest::collection::vec(any::<u64>(), 1..48).prop_map(|words| {
        let mut at = 0u64;
        let mut out = Vec::with_capacity(words.len());
        for w in words {
            let gap = w % 64;
            let len = 1 + (w >> 8) % 1023;
            at += gap;
            out.push(Region::new(at, len));
            at += len;
        }
        out
    })
}

proptest! {
    #[test]
    fn every_generated_list_validates(regions in region_list()) {
        prop_assert_eq!(validate_regions(&regions), Ok(()));
    }
}
