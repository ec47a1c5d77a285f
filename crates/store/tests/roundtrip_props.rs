//! Property tests for the `.qarcat` wire format: encode→decode is the
//! identity (bit-exactly, including NaN confidences and extreme float
//! values), and no corrupted or truncated input ever panics — every one
//! surfaces a structured [`StoreError`].

mod common;

use common::arb_catalog;
use qar_store::Catalog;

/// Pass-2 cells as `CapturedCounts` keeps them.
type PairCells = Vec<((u32, u32), Vec<u64>)>;

/// Arbitrary valid catalogs survive encode → decode → encode with byte
/// equality — the strongest round-trip statement, immune to `f64`
/// comparison pitfalls (`NaN != NaN`).
#[test]
fn arbitrary_catalogs_round_trip_bit_exactly() {
    let mut with_cells = 0;
    qar_prng::cases(64, 0x5702E, |case, rng| {
        let catalog = arb_catalog(rng);
        if catalog
            .counts()
            .is_some_and(|c| !c.captured.pair_cells.is_empty())
        {
            with_cells += 1;
        }
        let bytes = catalog.encode();
        let back =
            Catalog::decode(&bytes).unwrap_or_else(|e| panic!("case {case}: decode failed: {e}"));
        assert_eq!(back.encode(), bytes, "case {case}: re-encode differs");
        assert_eq!(back.rules().len(), catalog.rules().len(), "case {case}");
        assert_eq!(back.num_rows(), catalog.num_rows(), "case {case}");
        assert_eq!(back.schema().len(), catalog.schema().len(), "case {case}");
        assert_eq!(
            back.interest().map(<[_]>::len),
            catalog.interest().map(<[_]>::len),
            "case {case}"
        );
    });
    assert!(with_cells > 0, "some catalogs carry pass-2 cells");
}

/// Persisted pass-2 cells that break an invariant the driver's rectangle
/// sums rely on — pairs out of order or outside the schema, a wrong cell
/// count, cells whose row or column sums miss the pass-1 histograms —
/// are a structured `Corrupt` error on the counts section (decode
/// attaches counts through the same check).
#[test]
fn inconsistent_pair_cells_are_corrupt() {
    let mut checked = 0;
    qar_prng::cases(64, 0xCE115, |case, rng| {
        let catalog = arb_catalog(rng);
        let Some(counts) = catalog.counts().cloned() else {
            return;
        };
        let Some(p) = (!counts.captured.pair_cells.is_empty())
            .then(|| rng.gen_range(0..counts.captured.pair_cells.len()))
        else {
            return;
        };
        let attrs = catalog.schema().len() as u32;
        let ((a, b), cells) = counts.captured.pair_cells[p].clone();
        let mut broken = Vec::new();
        let mut mutate = |f: &mut dyn FnMut(&mut PairCells)| {
            let mut bad = counts.clone();
            f(&mut bad.captured.pair_cells);
            broken.push(bad);
        };
        mutate(&mut |pairs| pairs[p].0 = (b, a));
        mutate(&mut |pairs| pairs[p].0 = (a, attrs));
        mutate(&mut |pairs| {
            let dup = pairs[p].clone();
            pairs.insert(p, dup);
        });
        mutate(&mut |pairs| {
            pairs[p].1.push(0);
        });
        if !cells.is_empty() {
            let cell = rng.gen_range(0..cells.len());
            mutate(&mut |pairs| pairs[p].1[cell] += 1);
            mutate(&mut |pairs| {
                pairs[p].1.pop();
            });
        }
        // Moving a unit along a row keeps the row sums but not the
        // column sums.
        let stride = catalog.encoders()[b as usize].cardinality() as usize;
        if stride > 1 && cells.iter().step_by(stride).any(|&c| c > 0) {
            let from = (0..cells.len())
                .step_by(stride)
                .find(|&i| cells[i] > 0)
                .unwrap();
            mutate(&mut |pairs| {
                pairs[p].1[from] -= 1;
                pairs[p].1[from + 1] += 1;
            });
        }
        for bad in broken {
            match catalog.clone().without_counts().with_counts(bad) {
                Err(qar_store::StoreError::Corrupt { section, .. }) => {
                    assert_eq!(section, "counts", "case {case}")
                }
                other => panic!("case {case}: expected Corrupt, got {:?}", other.map(|_| ())),
            }
            checked += 1;
        }
    });
    assert!(checked > 0, "some catalogs carry pass-2 cells to break");
}

/// A decoded catalog is [`Catalog::content_eq`] to the one that was
/// encoded (whenever content equality is decidable — NaN confidences make
/// a catalog unequal even to itself, exactly like `f64` comparison), and
/// two independently drawn catalogs with different bytes are not.
#[test]
fn round_trip_preserves_content_equality() {
    qar_prng::cases(32, 0xC07E47, |case, rng| {
        let catalog = arb_catalog(rng);
        let bytes = catalog.encode();
        let back = Catalog::decode(&bytes).expect("valid catalog decodes");
        let has_nan = catalog.rules().iter().any(|r| r.confidence.is_nan());
        assert_eq!(
            back.content_eq(&catalog),
            !has_nan,
            "case {case}: round trip must preserve content (modulo NaN)"
        );
        let other = arb_catalog(rng);
        if other.schema() != back.schema() || other.rules() != back.rules() {
            assert!(
                !back.content_eq(&other),
                "case {case}: catalogs with different schemas/rules compared equal"
            );
        }
    });
}

/// Flipping any single byte always produces an `Err` (the magic, version,
/// and per-section CRCs leave no unprotected byte) and never a panic.
#[test]
fn single_byte_corruption_is_always_detected() {
    qar_prng::cases(24, 0xC0552, |case, rng| {
        let bytes = arb_catalog(rng).encode();
        for _ in 0..64 {
            let mut bad = bytes.clone();
            let offset = rng.gen_range(0..bad.len());
            let mask = rng.gen_range(1..256u32) as u8;
            bad[offset] ^= mask;
            let result = Catalog::decode(&bad);
            assert!(
                result.is_err(),
                "case {case}: flipping byte {offset} with {mask:#04x} went undetected"
            );
        }
    });
}

/// Every strict prefix of a valid catalog fails to decode (no truncation
/// is silently accepted), and decoding never panics on any prefix. The
/// deliberate exceptions: a catalog with trailing optional sections
/// (analytics, counts) cut *exactly* at a section boundary after the
/// mandatory three is a valid, shorter catalog — those boundaries are
/// the forward-compatibility seam, and a cut there must decode to the
/// same content minus the dropped trailing section(s).
#[test]
fn truncated_catalogs_always_error() {
    qar_prng::cases(8, 0x7254C, |case, rng| {
        let catalog = arb_catalog(rng);
        let bytes = catalog.encode();
        // Decodable prefixes: every section end after the mandatory
        // three (excluding the full length, which is not a strict
        // prefix). One boundary per trailing optional section.
        let sections = qar_store::section_inventory(&bytes).expect("valid catalog walks");
        let mut boundaries = std::collections::HashSet::new();
        let mut offset = qar_store::format::MAGIC.len() + 4;
        for (i, s) in sections.iter().enumerate() {
            offset += 4 + 8 + 4 + s.len as usize;
            if i >= 2 && offset < bytes.len() {
                boundaries.insert(offset);
            }
        }
        for len in 0..bytes.len() {
            match Catalog::decode(&bytes[..len]) {
                Err(_) => assert!(
                    !boundaries.contains(&len),
                    "case {case}: cut at an optional-section boundary ({len}) must decode"
                ),
                Ok(back) => {
                    assert!(
                        boundaries.contains(&len),
                        "case {case}: prefix of {len}/{} bytes decoded",
                        bytes.len()
                    );
                    assert_eq!(
                        back.encode(),
                        &bytes[..len],
                        "case {case}: truncated catalog re-encodes to its own prefix"
                    );
                }
            }
        }
    });
}

/// A catalog followed by a well-formed *unknown* trailing section (the
/// layout a future format revision would write) still decodes, and its
/// content is untouched — old readers skip what they don't understand.
/// A corrupted unknown section is still rejected: skipping never skips
/// the checksum.
#[test]
fn unknown_trailing_sections_are_skipped_but_verified() {
    qar_prng::cases(16, 0xF07A4D, |case, rng| {
        let catalog = arb_catalog(rng);
        let mut bytes = catalog.encode();
        let payload: Vec<u8> = (0..rng.gen_range(0..64usize))
            .map(|_| rng.gen_range(0..256u32) as u8)
            .collect();
        let tag: u32 = rng.gen_range(1000..2000);
        let mut w = qar_store::format::Writer::new();
        w.put_section(tag, &payload);
        let section = w.into_bytes();
        bytes.extend_from_slice(&section);

        let back = Catalog::decode(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: unknown section broke decode: {e}"));
        let has_nan = catalog.rules().iter().any(|r| r.confidence.is_nan());
        assert_eq!(back.content_eq(&catalog), !has_nan, "case {case}");

        // Any flipped byte inside the appended section is still caught.
        let offset = bytes.len() - section.len() + rng.gen_range(0..section.len());
        bytes[offset] ^= 0x10;
        assert!(
            Catalog::decode(&bytes).is_err(),
            "case {case}: corrupted unknown section went undetected"
        );
    });
}

/// Appending trailing garbage after a valid catalog is rejected too.
#[test]
fn trailing_bytes_are_rejected() {
    qar_prng::cases(8, 0x72A17, |case, rng| {
        let mut bytes = arb_catalog(rng).encode();
        bytes.push(0);
        assert!(
            Catalog::decode(&bytes).is_err(),
            "case {case}: trailing byte accepted"
        );
    });
}
