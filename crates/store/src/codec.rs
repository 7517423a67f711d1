//! Bit-exact text codec for payload lines.
//!
//! Store payloads are text lines; floats inside them must survive a
//! round-trip without losing a single bit, so they are written as the
//! 16-hex-digit IEEE-754 bit pattern (`f64::to_bits`) — the same
//! convention `SweepCheckpoint` uses. Decimal formatting is *not* used
//! anywhere in a payload: `0.1` has no finite decimal that reparses to the
//! same bits at every precision, hex bits always do.
//!
//! Bulk payloads hold hundreds of thousands of cells, so neither direction
//! allocates per value: [`push_hex_f64`] appends digits from a table into
//! the caller's line, and [`parse_hex_f64_bytes`] decodes a fixed 16-byte
//! window that callers slice out of a row at a fixed stride.

/// Lowercase hex digit per nibble value.
const HEX_DIGIT: [u8; 16] = *b"0123456789abcdef";

/// Appends an `f64`'s 16-hex-digit raw bit pattern (lowercase, most
/// significant nibble first) to `out` — byte-for-byte
/// `format!("{:016x}", value.to_bits())` without the temporary `String`.
pub fn push_hex_f64(out: &mut String, value: f64) {
    let bits = value.to_bits();
    out.reserve(16);
    for shift in (0..16u32).rev() {
        // The mask keeps the index below 16.
        out.push(char::from(HEX_DIGIT[(bits >> (4 * shift)) as usize & 0xF]));
    }
}

/// Renders an `f64` as its 16-hex-digit raw bit pattern.
#[must_use]
pub fn hex_f64(value: f64) -> String {
    let mut out = String::with_capacity(16);
    push_hex_f64(&mut out, value);
    out
}

/// Nibble value per ASCII byte; `0xFF` marks a non-hex byte. A table
/// lookup per digit keeps bulk decode (tens of thousands of cells per
/// warm tCDP matrix) well below `from_str_radix`, which re-validates
/// radix, sign, and overflow per call.
const HEX_NIBBLE: [u8; 256] = {
    let mut table = [0xFFu8; 256];
    let mut digit = 0u8;
    while digit < 10 {
        table[(b'0' + digit) as usize] = digit;
        digit += 1;
    }
    let mut letter = 0u8;
    while letter < 6 {
        table[(b'a' + letter) as usize] = 10 + letter;
        table[(b'A' + letter) as usize] = 10 + letter;
        letter += 1;
    }
    table
};

/// Parses exactly 16 hex digits (either case) back to the `f64` whose bit
/// pattern they spell; `None` if any byte is not a hex digit.
///
/// Digits are combined pairwise into the eight big-endian bytes of the
/// pattern, so every table load is independent of the others instead of
/// feeding one serial shift chain.
#[must_use]
pub fn parse_hex_f64_bytes(digits: &[u8; 16]) -> Option<f64> {
    let mut bytes = [0u8; 8];
    let mut invalid = 0u8;
    for (byte, [high, low]) in bytes.iter_mut().zip(digits.as_chunks::<2>().0) {
        let high = HEX_NIBBLE[usize::from(*high)];
        let low = HEX_NIBBLE[usize::from(*low)];
        invalid |= high | low;
        *byte = (high << 4) | (low & 0x0F);
    }
    // One branch for the whole value: any non-hex byte sets the 0xF0 bits.
    (invalid & 0xF0 == 0).then(|| f64::from_bits(u64::from_be_bytes(bytes)))
}

/// Parses a [`hex_f64`]-rendered value back to the identical bits.
/// Exactly 16 hex digits (either case) are accepted — no signs, spaces,
/// or radix prefixes, unlike `from_str_radix`.
#[must_use]
pub fn parse_hex_f64(text: &str) -> Option<f64> {
    parse_hex_f64_bytes(text.as_bytes().try_into().ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_are_bit_exact() {
        for v in [
            0.0,
            -0.0,
            1.0,
            0.1,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::NEG_INFINITY,
            f64::NAN,
            123.456e-78,
        ] {
            let text = hex_f64(v);
            assert_eq!(text.len(), 16);
            let back = parse_hex_f64(&text).expect("valid hex");
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn malformed_hex_is_rejected() {
        assert_eq!(parse_hex_f64(""), None);
        assert_eq!(parse_hex_f64("3ff"), None);
        assert_eq!(parse_hex_f64("zzzzzzzzzzzzzzzz"), None);
        assert_eq!(parse_hex_f64("3ff00000000000000"), None);
        assert_eq!(parse_hex_f64("+3ff000000000000"), None);
        assert_eq!(parse_hex_f64(" 3ff000000000000"), None);
        // A 2-byte UTF-8 character in place of two digits keeps the byte
        // length at 16 but is not hex.
        assert_eq!(parse_hex_f64("3ff00000000000é"), None);
        for bad in [b'g', b'G', b'/', b':', b'@', b'`', b'\t', 0x80, 0xFF] {
            let mut digits = *b"3ff0000000000000";
            for slot in 0..16 {
                let saved = digits[slot];
                digits[slot] = bad;
                assert_eq!(
                    parse_hex_f64_bytes(&digits),
                    None,
                    "byte {bad:#x} at {slot}"
                );
                digits[slot] = saved;
            }
        }
    }

    #[test]
    fn uppercase_hex_parses_to_the_same_bits() {
        let v = -123.456e-300;
        let upper = hex_f64(v).to_ascii_uppercase();
        assert_eq!(parse_hex_f64(&upper).map(f64::to_bits), Some(v.to_bits()));
    }

    /// The writer is byte-identical to `format!("{:016x}")`, so payloads
    /// written by the table-driven codec equal those of the formatter it
    /// replaced, and the fixed-window parser inverts it.
    #[test]
    fn writer_matches_the_formatter_and_the_parser_inverts_it() {
        let mut patterns = vec![
            f64::NAN.to_bits(),
            0x7ff0_0000_0000_0001, // signalling NaN payload
            0x7ff8_dead_beef_0001, // quiet NaN payload
            0xfff0_0000_0000_0abc, // negative NaN payload
            (-0.0f64).to_bits(),
            0.0f64.to_bits(),
            1,                     // smallest subnormal
            0x000f_ffff_ffff_ffff, // largest subnormal
            0x800f_ffff_ffff_ffff, // negative subnormal
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            u64::MAX,
        ];
        // splitmix64, seeded: 10,000 arbitrary bit patterns.
        let mut state = 0x005e_ed0f_c0de_u64;
        for _ in 0..10_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            patterns.push(z ^ (z >> 31));
        }
        let mut line = String::new();
        for bits in patterns {
            line.clear();
            push_hex_f64(&mut line, f64::from_bits(bits));
            assert_eq!(line, format!("{bits:016x}"));
            assert_eq!(hex_f64(f64::from_bits(bits)), line);
            let digits: &[u8; 16] = line.as_bytes().try_into().expect("16 digits");
            let back = parse_hex_f64_bytes(digits).expect("valid hex");
            assert_eq!(back.to_bits(), bits);
        }
    }

    #[test]
    fn push_appends_after_existing_text() {
        let mut line = String::from("r");
        line.push(' ');
        push_hex_f64(&mut line, 1.0);
        line.push(' ');
        push_hex_f64(&mut line, -2.0);
        assert_eq!(line, "r 3ff0000000000000 c000000000000000");
    }
}
