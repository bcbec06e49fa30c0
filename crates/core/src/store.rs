//! The local store of the multi-fire QR VDPs, and its snapshot helpers
//! for the checkpoint/restart protocol.
//!
//! Every stateful QR VDP carries the same local store — an optional tile
//! (`R` under construction in a factor VDP, `C1` in an update VDP) — so
//! they share one firing rule ([`stream_operands`]) and one byte layout:
//! a present flag, then the matrix body in the standard wire encoding.

use pulsar_linalg::Matrix;
use pulsar_runtime::packet::{decode_matrix_body, encode_matrix_body};
use pulsar_runtime::WireError;

/// Operands of one firing of a flat-reduction VDP: the first firing's tile
/// becomes the held tile and is the op's only operand; every later tile
/// streams against the held one as the op's secondary.
pub(crate) fn stream_operands(
    held: &mut Option<Matrix>,
    tile: Matrix,
    first: bool,
) -> (&mut Matrix, Option<Matrix>) {
    if first {
        (held.insert(tile), None)
    } else {
        let held = held.as_mut().expect("local tile initialized at firing 0");
        (held, Some(tile))
    }
}

/// Append a `Option<Matrix>` local store to `out`.
pub(crate) fn snapshot_tile(tile: &Option<Matrix>, out: &mut Vec<u8>) {
    match tile {
        None => out.push(0),
        Some(m) => {
            out.push(1);
            encode_matrix_body(m, out);
        }
    }
}

/// Parse a local store written by [`snapshot_tile`]; rejects trailing
/// bytes so a truncated or oversized snapshot surfaces as a typed error.
pub(crate) fn restore_tile(bytes: &[u8]) -> Result<Option<Matrix>, WireError> {
    match bytes.split_first() {
        Some((0, [])) => Ok(None),
        Some((1, rest)) => {
            let (m, left) = decode_matrix_body(rest)?;
            if left.is_empty() {
                Ok(Some(m))
            } else {
                Err(WireError::Malformed("trailing bytes after tile snapshot"))
            }
        }
        _ => Err(WireError::Malformed("bad tile local-store snapshot")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_store_round_trips() {
        let mut out = Vec::new();
        snapshot_tile(&None, &mut out);
        assert_eq!(restore_tile(&out).unwrap(), None);

        let m = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        let mut out = Vec::new();
        snapshot_tile(&Some(m.clone()), &mut out);
        assert_eq!(restore_tile(&out).unwrap(), Some(m));
    }

    #[test]
    fn tile_store_rejects_garbage() {
        assert!(restore_tile(&[]).is_err());
        assert!(restore_tile(&[2]).is_err());
        assert!(restore_tile(&[0, 0]).is_err());
        assert!(restore_tile(&[1, 1, 2, 3]).is_err());
        let m = Matrix::identity(2);
        let mut out = Vec::new();
        snapshot_tile(&Some(m), &mut out);
        out.push(0xAB);
        assert!(restore_tile(&out).is_err());
    }
}
