//! Segment record codec: length-prefixed, CRC-checked log records.
//!
//! A segment file is a flat sequence of records. Each record is
//!
//! ```text
//! offset 0   u32 LE   body_len            (BODY_HEADER ..= BODY_HEADER + MAX_VALUE)
//! offset 4   u32 LE   crc32(body)         (IEEE polynomial)
//! offset 8   body:
//!            u8       op                  (1 = PUT, 2 = PROMOTE, 3 = EVICT)
//!            u32 LE   page
//!            u8       level               (PROMOTE only; 0 otherwise)
//!            u32 LE   vlen                (PUT only; 0 otherwise)
//!            [u8]     value               (vlen bytes)
//! ```
//!
//! Decoding distinguishes a **truncated** suffix (the buffer ends inside
//! a record — the normal torn-write shape after a crash) from **bad**
//! bytes (a record that is complete but inconsistent: CRC mismatch,
//! unknown op, contradictory lengths). Recovery truncates the former at
//! the record boundary; the latter is also treated as a torn tail in the
//! final segment but is corruption anywhere else.

use wmlp_core::storage::MAX_VALUE;
use wmlp_core::types::{Level, PageId};

/// Bytes before the body: `body_len` + CRC.
pub const RECORD_HEADER: usize = 8;
/// Fixed body bytes before the value: op + page + level + vlen.
pub const BODY_HEADER: usize = 10;
/// Offset of a PUT record's value bytes from the start of the record.
pub const VALUE_OFFSET: usize = RECORD_HEADER + BODY_HEADER;

const OP_PUT: u8 = 1;
const OP_PROMOTE: u8 = 2;
const OP_EVICT: u8 = 3;

/// One logical operation in the segment log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A value writeback: `page`'s durable contents become `value`.
    Put {
        /// Page written back.
        page: PageId,
        /// The written value.
        value: Vec<u8>,
    },
    /// Residency marker: `page`'s copy moved to `level` (1 = warm tier).
    Promote {
        /// Page promoted.
        page: PageId,
        /// Destination level.
        level: Level,
    },
    /// Residency marker: `page` left the warm tier and is cold again.
    Evict {
        /// Page evicted.
        page: PageId,
    },
}

/// Result of decoding the front of a byte buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded {
    /// A complete record and the total bytes it occupied.
    Complete(Record, usize),
    /// The buffer ends mid-record (torn tail).
    Truncated,
    /// A complete but inconsistent record (corruption).
    Bad(&'static str),
}

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[usize::from((c ^ u32::from(b)) as u8)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn le_u32(buf: &[u8]) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[..4]);
    u32::from_le_bytes(b)
}

/// Append the encoded record to `out`.
pub fn encode_record(rec: &Record, out: &mut Vec<u8>) {
    match rec {
        Record::Put { page, value } => encode_put(*page, value, out),
        Record::Promote { page, level } => encode_parts(OP_PROMOTE, *page, *level, &[], out),
        Record::Evict { page } => encode_parts(OP_EVICT, *page, 0, &[], out),
    }
}

/// Append the encoded `PUT` record for `page` to `out`, straight from
/// borrowed value bytes — the same bytes [`encode_record`] produces for
/// a [`Record::Put`], without owning the value first.
pub fn encode_put(page: PageId, value: &[u8], out: &mut Vec<u8>) {
    encode_parts(OP_PUT, page, 0, value, out);
}

fn encode_parts(op: u8, page: PageId, level: Level, value: &[u8], out: &mut Vec<u8>) {
    let body_len = BODY_HEADER + value.len();
    let start = out.len();
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // CRC placeholder
    out.push(op);
    out.extend_from_slice(&page.to_le_bytes());
    out.push(level);
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value);
    let crc = crc32(&out[start + RECORD_HEADER..]);
    out[start + 4..start + RECORD_HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// Decode the record at the front of `buf`.
pub fn decode_record(buf: &[u8]) -> Decoded {
    if buf.len() < RECORD_HEADER {
        return Decoded::Truncated;
    }
    let body_len = le_u32(buf) as usize;
    if !(BODY_HEADER..=BODY_HEADER + MAX_VALUE).contains(&body_len) {
        return Decoded::Bad("record length out of range");
    }
    let total = RECORD_HEADER + body_len;
    if buf.len() < total {
        return Decoded::Truncated;
    }
    let want_crc = le_u32(&buf[4..]);
    let body = &buf[RECORD_HEADER..total];
    if crc32(body) != want_crc {
        return Decoded::Bad("CRC mismatch");
    }
    let op = body[0];
    let page = le_u32(&body[1..]);
    let level = body[5];
    let vlen = le_u32(&body[6..]) as usize;
    if vlen != body_len - BODY_HEADER {
        return Decoded::Bad("value length disagrees with record length");
    }
    let rec = match op {
        OP_PUT => Record::Put {
            page,
            value: body[BODY_HEADER..].to_vec(),
        },
        OP_PROMOTE if vlen == 0 && level >= 1 => Record::Promote { page, level },
        OP_PROMOTE => return Decoded::Bad("malformed PROMOTE record"),
        OP_EVICT if vlen == 0 => Record::Evict { page },
        OP_EVICT => return Decoded::Bad("EVICT record carries a value"),
        _ => return Decoded::Bad("unknown record op"),
    };
    Decoded::Complete(rec, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Record> {
        vec![
            Record::Put {
                page: 0,
                value: Vec::new(),
            },
            Record::Put {
                page: 7,
                value: b"hello, tier".to_vec(),
            },
            Record::Put {
                page: u32::MAX,
                value: vec![0xAB; 300],
            },
            Record::Promote { page: 3, level: 1 },
            Record::Promote { page: 9, level: 4 },
            Record::Evict { page: 12 },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip() {
        for rec in samples() {
            let mut buf = Vec::new();
            encode_record(&rec, &mut buf);
            match decode_record(&buf) {
                Decoded::Complete(got, used) => {
                    assert_eq!(got, rec);
                    assert_eq!(used, buf.len());
                }
                other => panic!("expected Complete, got {other:?} for {rec:?}"),
            }
        }
    }

    #[test]
    fn encode_put_writes_the_bytes_of_a_put_record() {
        for rec in samples() {
            let Record::Put { page, value } = &rec else {
                continue;
            };
            let (mut owned, mut borrowed) = (vec![0xEE], vec![0xEE]);
            encode_record(&rec, &mut owned);
            encode_put(*page, value, &mut borrowed);
            assert_eq!(borrowed, owned, "page {page}");
        }
    }

    #[test]
    fn concatenated_records_decode_in_sequence() {
        let recs = samples();
        let mut buf = Vec::new();
        for rec in &recs {
            encode_record(rec, &mut buf);
        }
        let mut off = 0;
        let mut got = Vec::new();
        while off < buf.len() {
            match decode_record(&buf[off..]) {
                Decoded::Complete(rec, used) => {
                    got.push(rec);
                    off += used;
                }
                other => panic!("decode failed at {off}: {other:?}"),
            }
        }
        assert_eq!(got, recs);
    }

    #[test]
    fn every_proper_prefix_is_truncated_not_bad() {
        let rec = Record::Put {
            page: 42,
            value: b"torn write".to_vec(),
        };
        let mut buf = Vec::new();
        encode_record(&rec, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(
                decode_record(&buf[..cut]),
                Decoded::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corruption_is_bad_not_truncated() {
        let rec = Record::Put {
            page: 42,
            value: b"bits rot".to_vec(),
        };
        let mut buf = Vec::new();
        encode_record(&rec, &mut buf);
        // Flip one value byte: CRC must catch it.
        let mut bad = buf.clone();
        bad[VALUE_OFFSET] ^= 0x01;
        assert!(matches!(decode_record(&bad), Decoded::Bad(_)));
        // Unknown op with a fixed-up CRC.
        let mut bad = buf.clone();
        bad[RECORD_HEADER] = 9;
        let crc = crc32(&bad[RECORD_HEADER..]);
        bad[4..8].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_record(&bad), Decoded::Bad(_)));
        // Absurd length prefix.
        let mut bad = buf;
        bad[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_record(&bad), Decoded::Bad(_)));
    }
}
