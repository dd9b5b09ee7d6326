//! Integers in decimal without `core::fmt`, for the hot paths that
//! write numbers: the live gateway's reply lines and the decision
//! journal's reasons.

/// `00` to `99` as ASCII, side by side.
const PAIRS: [u8; 200] = {
    let mut pairs = [b'0'; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] += (i / 10) as u8;
        pairs[2 * i + 1] += (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// `v` in decimal, written into a stack buffer (no allocation). Four
/// digits a step — one division by 10 000, two table pairs — then the
/// one to four that lead.
#[inline]
pub fn fmt_u64(buf: &mut [u8; 20], mut v: u64) -> &[u8] {
    let pair = |i: u64| &PAIRS[2 * i as usize..][..2];
    let mut at = buf.len();
    while v >= 10_000 {
        let four = v % 10_000;
        v /= 10_000;
        at -= 4;
        buf[at..at + 2].copy_from_slice(pair(four / 100));
        buf[at + 2..at + 4].copy_from_slice(pair(four % 100));
    }
    if v >= 100 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(pair(v % 100));
        v /= 100;
    }
    if v >= 10 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(pair(v));
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    &buf[at..]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_u64_is_exact_at_every_power_of_ten() {
        let powers = (0..20).map(|k| 10u64.pow(k));
        for v in powers.flat_map(|p| [p - 1, p]).chain([u64::MAX]) {
            assert_eq!(fmt_u64(&mut [0; 20], v), v.to_string().as_bytes());
        }
    }
}
