//! The answer oracle: a relation's fingerprint is its row count plus an
//! order-insensitive checksum over the wire encoding of every tuple, so
//! two answers compare as multisets without keeping either around.

use tango_algebra::codec::encode_tuple;
use tango_algebra::Relation;

/// Fingerprint of one query answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub rows: usize,
    pub checksum: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Spread a per-tuple hash before summing, so that two changed tuples
/// cannot cancel as easily as under a plain sum of FNV values.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub fn answer(rel: &Relation) -> Answer {
    let mut buf = Vec::new();
    let mut checksum = 0u64;
    for t in rel.tuples() {
        buf.clear();
        encode_tuple(t, &mut buf);
        checksum = checksum.wrapping_add(mix(fnv1a(&buf)));
    }
    Answer { rows: rel.len(), checksum }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tango_algebra::{tup, Attr, Schema, Type};

    fn rel(rows: Vec<tango_algebra::Tuple>) -> Relation {
        let schema = Arc::new(Schema::new(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("Name", Type::Str),
            Attr::new("Cnt", Type::Int),
        ]));
        Relation::new(schema, rows)
    }

    #[test]
    fn flags_a_corrupted_row_and_a_corrupted_count() {
        let good = rel(vec![tup![1, "Tom", 2], tup![1, "Jane", 5], tup![2, "Tom", 5]]);
        let expected = answer(&good);

        // order does not matter: ORDER BY leaves ties free
        let reordered = rel(vec![tup![2, "Tom", 5], tup![1, "Tom", 2], tup![1, "Jane", 5]]);
        assert_eq!(answer(&reordered), expected);

        // one value of one row changed: same count, other checksum
        let bad_row = rel(vec![tup![1, "Tom", 2], tup![1, "Jane", 6], tup![2, "Tom", 5]]);
        let a = answer(&bad_row);
        assert_eq!(a.rows, expected.rows);
        assert_ne!(a.checksum, expected.checksum);
        assert_ne!(a, expected);

        // one row missing, and one row doubled: the count differs
        let short = rel(vec![tup![1, "Tom", 2], tup![1, "Jane", 5]]);
        assert_ne!(answer(&short).rows, expected.rows);
        assert_ne!(answer(&short), expected);
        let doubled =
            rel(vec![tup![1, "Tom", 2], tup![1, "Jane", 5], tup![2, "Tom", 5], tup![2, "Tom", 5]]);
        assert_ne!(answer(&doubled), expected);

        // a count corrupted on an otherwise right checksum is flagged too
        let wrong_count = Answer { rows: expected.rows + 1, ..expected };
        assert_ne!(wrong_count, expected);
    }
}
