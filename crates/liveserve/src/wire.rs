//! Wire-protocol framing and parsing, independent of sockets.
//!
//! The gateway reads raw TCP segments; nothing guarantees a `REQ` line
//! arrives in one piece or that a peer is well-behaved. [`LineDecoder`]
//! turns an arbitrary byte stream into a sequence of [`WireItem`]s:
//!
//! * lines may be split across any number of segments (the partial tail
//!   is carried between [`LineDecoder::feed`] calls);
//! * a line longer than [`MAX_LINE`] bytes is garbage by definition
//!   (well-formed request lines are tens of bytes) — it yields one
//!   [`WireItem::Malformed`] and the decoder then *discards* bytes up to
//!   the next newline, so an abusive or corrupted peer cannot desync
//!   the framing or balloon the buffer;
//! * malformed-but-bounded lines yield [`WireItem::Malformed`] and the
//!   connection keeps going, matching the old per-thread reader's
//!   "answer `ERR 0` and carry on" behaviour.
//!
//! The decoder is pure state over bytes, which is what makes the
//! byte-at-a-time and fragmentation tests below possible without a
//! socket in sight.
//!
//! ## One grammar, two speeds
//!
//! [`parse_request`] behind the framer (`find_newline` → `emit`) is the
//! single authority on the grammar and the only code that emits
//! [`WireItem::Malformed`]. In front of it sits an **in-place tier**
//! (`canonical`): while the decoder is at a line start it recognises the
//! *canonical* line — exactly `REQ <id> <api>[ <key>|-[ <trace>]]`,
//! single spaces, bare digits (at most 19, so nothing can overflow),
//! ended by `\n` or `\r\n`; every line `loadgen` sends — where it lies in
//! the segment, without framing it first. Its contract is **decline
//! whole**: it either yields the `Request` the general path would have
//! yielded for those bytes, or consumes nothing and says nothing, and the
//! line goes through the framer as before. Other whitespace, a `+`, 20
//! digits, a non-ASCII byte, a line that straddles two reads, garbage:
//! all declined, none judged.
//!
//! The tier is fast because it is not fenced by the *line*. A cursor
//! over a line slice must walk a token's tail bytewise; the tier reads
//! each token eight bytes at a time straight out of the segment, past the
//! token's own end (those bytes are the next token or the next line, and
//! they are there), classifies the digits with one SWAR test and folds up
//! to eight of them with three multiplies. The only fence is the
//! segment's end: a load that would cross it declines rather than reads
//! past, so the last line of a read whose final token sits within eight
//! bytes of that end takes the general path.

/// Longest acceptable request line (bytes, excluding the newline). A
/// maximal legitimate line — `REQ <u64> <usize>` — is under 48 bytes;
/// the slack tolerates sloppy clients without tolerating abuse.
pub const MAX_LINE: usize = 256;

/// One framed outcome from the decoder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireItem {
    /// A well-formed `REQ <id> <api> [key|-] [trace]` line. `key` marks
    /// the request as a coalescable read of that resource key; `trace`
    /// opts it into causal tracing.
    Request {
        id: u64,
        api: usize,
        key: Option<u64>,
        trace: Option<u64>,
    },
    /// A complete but unparseable (or oversized) line; the gateway
    /// answers `ERR 0` and keeps the connection.
    Malformed,
}

/// Parse `REQ <id> <api_idx> [key|-] [trace]` → `(id, api, key, trace)`.
///
/// The grammar is positional and backward compatible:
/// * 3 tokens — the original protocol, no key, no trace;
/// * 4 tokens — a coalescing resource key (old clients unchanged), or
///   the placeholder `-` meaning "no key";
/// * 5 tokens — key (or `-`) plus a trace id opting the request into
///   causal tracing;
/// * 6+ tokens — rejected.
///
/// Tokens are separated by ASCII whitespace; numbers are what
/// `str::parse::<u64>` takes (decimal digits after an optional `+`,
/// overflow rejected). One pass over the bytes: any byte outside that
/// grammar — so any non-ASCII byte — fails its token, which is why no
/// UTF-8 validation is needed.
pub fn parse_request(line: &[u8]) -> Option<(u64, usize, Option<u64>, Option<u64>)> {
    let mut f = Fields { line, at: 0 };
    f.more()?;
    if !f.word(b"REQ") {
        return None;
    }
    f.more()?;
    let id = f.number()?;
    f.more()?;
    let api = usize::try_from(f.number()?).ok()?;
    if f.more().is_none() {
        return Some((id, api, None, None));
    }
    let key = if f.word(b"-") {
        None
    } else {
        Some(f.number()?)
    };
    if f.more().is_none() {
        return Some((id, api, key, None));
    }
    let trace = f.number()?;
    match f.more() {
        Some(()) => None, // a sixth token
        None => Some((id, api, key, Some(trace))),
    }
}

/// A cursor over one line. `more` moves it to the next token's first
/// byte; `word` and `number` consume a token from there.
struct Fields<'a> {
    line: &'a [u8],
    at: usize,
}

impl Fields<'_> {
    fn token_ends(&self, at: usize) -> bool {
        self.line.get(at).is_none_or(u8::is_ascii_whitespace)
    }

    /// Skip whitespace; `Some` if another token follows.
    fn more(&mut self) -> Option<()> {
        while self.line.get(self.at)?.is_ascii_whitespace() {
            self.at += 1;
        }
        Some(())
    }

    /// Consume the token at the cursor if it is exactly `word`.
    fn word(&mut self, word: &[u8]) -> bool {
        let end = self.at + word.len();
        let hit = self.line[self.at..].starts_with(word) && self.token_ends(end);
        if hit {
            self.at = end;
        }
        hit
    }

    /// Consume the token at the cursor as a `u64`.
    fn number(&mut self) -> Option<u64> {
        let start = self.at + usize::from(self.line[self.at] == b'+');
        let (mut at, mut v) = (start, 0u64);
        while let Some(d) = self.line.get(at).map(|b| b.wrapping_sub(b'0')) {
            if d > 9 {
                break;
            }
            v = v.wrapping_mul(10).wrapping_add(u64::from(d));
            at += 1;
        }
        if at == start || !self.token_ends(at) {
            return None;
        }
        if at - start > 19 {
            // Only 20+ digits can overflow: redo those with checks.
            v = self.line[start..at].iter().try_fold(0u64, |v, b| {
                v.checked_mul(10)?.checked_add(u64::from(b - b'0'))
            })?;
        }
        self.at = at;
        Some(v)
    }
}

/// `str::trim_end` over bytes: ASCII whitespace (vertical tab included)
/// is stripped here; a line that then still ends in a non-ASCII byte
/// takes the cold path through `str`, which also knows the Unicode
/// spaces (NBSP, U+2028 …). `None` = that tail is not UTF-8, so the old
/// whole-line validation would have refused the line.
fn trim_line_end(mut line: &[u8]) -> Option<&[u8]> {
    while let [rest @ .., b'\t'..=b'\r' | b' '] = line {
        line = rest;
    }
    if line.last().is_some_and(|b| !b.is_ascii()) {
        line = std::str::from_utf8(line).ok()?.trim_end().as_bytes();
    }
    Some(line)
}

// ---- reply encoding ----------------------------------------------------

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

/// Append the reply line `<verb> <id>[ <tail>]\n` to a connection's
/// output buffer: `OK <id> <latency_us|payload>`, `REJ <id> limit|shed`,
/// `ERR <id>` (empty tail).
pub fn push_reply(out: &mut Vec<u8>, verb: &str, id: u64, tail: &[u8]) {
    out.extend_from_slice(verb.as_bytes());
    out.push(b' ');
    out.extend_from_slice(fmt_u64(&mut [0; 20], id));
    if !tail.is_empty() {
        out.push(b' ');
        out.extend_from_slice(tail);
    }
    out.push(b'\n');
}

/// Offset of the first `\n`, eight bytes at a time (a request line is a
/// few words long; the byte-wise search cost as much as parsing it).
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const LOW: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in words.by_ref() {
        // A byte of `w` is zero where the input byte is `\n`; the
        // classic zero-byte test flags the lowest such byte exactly.
        let w = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ (LOW * u64::from(b'\n'));
        let zero = w.wrapping_sub(LOW) & !w & HIGH;
        if zero != 0 {
            return Some(at + (zero.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    let tail = words.remainder().iter().position(|&b| b == b'\n')?;
    Some(at + tail)
}

// ---- the in-place tier -------------------------------------------------

/// `10^n` for the `n` digits one eight-byte load can hold.
const POW10: [u64; 9] = [
    1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000,
];

/// The bare decimal token — 1 to 19 digits, so it cannot overflow — at
/// `seg[start..]`: its value and the offset of the byte after it, which
/// exists. Reads eight bytes at a time, past the token's end; `None` (a
/// decline, never a verdict) if a load would cross the segment's end.
fn digits(seg: &[u8], start: usize) -> Option<(u64, usize)> {
    let (n, v) = chunk(seg, start)?;
    if n < 8 {
        return (n > 0).then_some((v, start + n));
    }
    let (n, low) = chunk(seg, start + 8)?;
    let v = v * POW10[n] + low;
    if n < 8 {
        return Some((v, start + 8 + n));
    }
    let (n, low) = chunk(seg, start + 16)?;
    if n > 3 {
        return None; // 20 digits can overflow: the general path's to judge
    }
    Some((v * POW10[n] + low, start + 16 + n))
}

/// The digits at the head of the eight bytes at `seg[at..]`: how many
/// there are and their value. `None` if the load would cross the
/// segment's end.
fn chunk(seg: &[u8], at: usize) -> Option<(usize, u64)> {
    const ZEROS: u64 = u64::from_ne_bytes([b'0'; 8]);
    const LOW7: u64 = u64::from_ne_bytes([0x7f; 8]);
    const ABOVE_9: u64 = u64::from_ne_bytes([0x7f - 9; 8]);
    let word = seg.get(at..at + 8)?.try_into().expect("8 bytes");
    // A byte of `w` is 0..=9 where the input byte is a digit. Adding 0x76
    // to its low seven bits carries into the high bit for any other
    // value (and never into the next byte); or-ing `w` back flags the
    // bytes whose high bit was set to begin with.
    let w = u64::from_le_bytes(word) ^ ZEROS;
    let other = (((w & LOW7) + ABOVE_9) | w) & !LOW7;
    let n = (other.trailing_zeros() / 8) as usize;
    // The `n` digits go to the top of the word, zeros (leading zeros)
    // below them, in two half shifts: none of the 64 bits survives
    // `n == 0`, which one shift by 64 cannot say. Then bytes fold to
    // pairs, pairs to fours, fours to the value; no lane can carry into
    // its neighbour.
    let half = 32 - 4 * n as u32;
    let mut d = (w << half) << half;
    d = (d * 10 + (d >> 8)) & 0x00ff_00ff_00ff_00ff;
    d = (d * 100 + (d >> 16)) & 0x0000_ffff_0000_ffff;
    d = (d * 10_000 + (d >> 32)) & 0xffff_ffff;
    Some((n, d))
}

/// The canonical line at the head of `seg`, if that is what lies there:
/// the request and the line's length, terminator included. Makes no
/// decision except "decline" (see the module docs).
fn canonical(seg: &[u8]) -> Option<(WireItem, usize)> {
    if !seg.starts_with(b"REQ ") {
        return None;
    }
    let (id, at) = digits(seg, 4)?;
    if seg[at] != b' ' {
        return None;
    }
    let (api, mut at) = digits(seg, at + 1)?;
    let (mut key, mut trace) = (None, None);
    if seg[at] == b' ' {
        if seg.get(at + 1) == Some(&b'-') {
            at += 2;
        } else {
            let (k, end) = digits(seg, at + 1)?;
            (key, at) = (Some(k), end);
        }
        if seg.get(at) == Some(&b' ') {
            let (t, end) = digits(seg, at + 1)?;
            (trace, at) = (Some(t), end);
        }
    }
    let len = match seg.get(at..)? {
        [b'\n', ..] => at + 1,
        [b'\r', b'\n', ..] => at + 2,
        _ => return None,
    };
    let api = usize::try_from(api).ok()?;
    let request = WireItem::Request {
        id,
        api,
        key,
        trace,
    };
    Some((request, len))
}

/// Incremental line framer with oversized-line resynchronisation.
#[derive(Default)]
pub struct LineDecoder {
    /// Carry-over of an incomplete line between feeds.
    partial: Vec<u8>,
    /// Inside an oversized line: drop bytes until the next newline.
    discarding: bool,
}

impl LineDecoder {
    pub fn new() -> Self {
        LineDecoder::default()
    }

    /// Bytes currently buffered waiting for a newline.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }

    /// Consume one TCP segment, appending framed items to `out`.
    pub fn feed(&mut self, mut bytes: &[u8], out: &mut Vec<WireItem>) {
        while let Some(nl) = self.next_newline(&mut bytes, out) {
            let line = &bytes[..nl];
            if self.discarding {
                self.discarding = false; // the oversized line ends here
            } else if self.partial.is_empty() {
                Self::emit(line, out);
            } else {
                self.partial.extend_from_slice(line);
                Self::emit(&self.partial, out);
                self.partial.clear();
            }
            bytes = &bytes[nl + 1..];
        }
        if self.discarding {
            return; // still inside the oversized line
        }
        if self.partial.len() + bytes.len() > MAX_LINE {
            // Oversized without a newline in sight: flag it once, drop
            // what we hoarded, skip to the next newline whenever it
            // shows up.
            out.push(WireItem::Malformed);
            self.partial.clear();
            self.discarding = true;
        } else {
            self.partial.extend_from_slice(bytes);
        }
    }

    /// The newline ending the next line the framer must judge. At a line
    /// start, the canonical lines ahead of it are taken in place first.
    fn next_newline(&self, bytes: &mut &[u8], out: &mut Vec<WireItem>) -> Option<usize> {
        while self.partial.is_empty() && !self.discarding {
            let Some((request, len)) = canonical(bytes) else {
                break;
            };
            out.push(request);
            *bytes = &bytes[len..];
        }
        find_newline(bytes)
    }

    /// Classify one complete line (newline excluded).
    fn emit(line: &[u8], out: &mut Vec<WireItem>) {
        if line.len() > MAX_LINE {
            out.push(WireItem::Malformed);
            return;
        }
        let Some(line) = trim_line_end(line) else {
            out.push(WireItem::Malformed);
            return;
        };
        if line.is_empty() {
            return; // blank lines are keep-alives, not errors
        }
        match parse_request(line) {
            Some((id, api, key, trace)) => out.push(WireItem::Request {
                id,
                api,
                key,
                trace,
            }),
            None => out.push(WireItem::Malformed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `str`-based parser this module shipped before it parsed
    /// bytes, kept verbatim as the oracle: UTF-8 validation, `trim_end`,
    /// `split_ascii_whitespace`, `str::parse`.
    fn classify_via_str(line: &[u8]) -> Option<WireItem> {
        fn parse(line: &str) -> Option<(u64, usize, Option<u64>, Option<u64>)> {
            let mut parts = line.split_ascii_whitespace();
            if parts.next()? != "REQ" {
                return None;
            }
            let id = parts.next()?.parse().ok()?;
            let api = parts.next()?.parse().ok()?;
            let key = match parts.next() {
                Some("-") => None,
                Some(tok) => Some(tok.parse().ok()?),
                None => return Some((id, api, None, None)),
            };
            let trace = match parts.next() {
                Some(tok) => Some(tok.parse().ok()?),
                None => None,
            };
            if parts.next().is_some() {
                return None;
            }
            Some((id, api, key, trace))
        }
        if line.len() > MAX_LINE {
            return Some(WireItem::Malformed);
        }
        let Ok(text) = std::str::from_utf8(line) else {
            return Some(WireItem::Malformed);
        };
        let text = text.trim_end();
        if text.is_empty() {
            return None;
        }
        Some(match parse(text) {
            Some((id, api, key, trace)) => WireItem::Request {
                id,
                api,
                key,
                trace,
            },
            None => WireItem::Malformed,
        })
    }

    fn classify(line: &[u8]) -> Option<WireItem> {
        let mut out = Vec::new();
        LineDecoder::emit(line, &mut out);
        assert!(out.len() <= 1);
        out.pop()
    }

    /// Tokens of the grammar and near misses of them; most are plain
    /// numbers so that whole valid requests come up often. The last
    /// twelve sit on the in-place tier's edges: a full eight-byte load and
    /// one digit more, two loads and one more, the 19 digits it takes and
    /// the 20 it declines (in range, all zeros, overflowing), a loadgen
    /// open-loop id (`1 << 62 | 1`).
    const TOKENS: [&[u8]; 36] = [
        b"0",
        b"7",
        b"42",
        b"1234567890123",
        b"3",
        b"9",
        b"65",
        b"18446744073709551615",
        b"0",
        b"7",
        b"42",
        b"1234567890123",
        b"3",
        b"9",
        b"65",
        b"00000000000000000000012",
        b"-",
        b"-",
        b"+9",
        b"+",
        b"-3",
        b"18446744073709551616",
        b"1e3",
        b"REQ",
        b"12345678",
        b"123456789",
        b"1234567890123456",
        b"12345678901234567",
        b"1234567890123456789",
        b"12345678901234567890",
        b"4611686018427387905",
        b"0000000000000000000",
        b"00000000000000000000",
        b"0000000000000000007",
        b"00000000000000000007",
        b"99999999999999999999",
    ];
    /// Separators: mostly what `split_ascii_whitespace` splits on, then
    /// what it does not (vertical tab, nothing, NBSP, U+2028, bad UTF-8).
    const SEPS: [&[u8]; 16] = [
        b" ",
        b" ",
        b" ",
        b" ",
        b" ",
        b" ",
        b"  ",
        b"\t",
        b"\r",
        b"\x0c",
        b" \r",
        b"\x0b",
        b"",
        b"\xc2\xa0",
        b"\xe2\x80\xa8",
        b"\xff",
    ];

    fn line_of(picks: &[(u8, u8)]) -> Vec<u8> {
        let mut line = Vec::new();
        for (i, &(tok, sep)) in picks.iter().enumerate() {
            match (i, tok % 8) {
                (0, 1..) => line.extend_from_slice(b"REQ"),
                (0, 0) => line.extend_from_slice(b"req"),
                _ => line.extend_from_slice(TOKENS[tok as usize % TOKENS.len()]),
            }
            line.extend_from_slice(SEPS[sep as usize % SEPS.len()]);
        }
        line
    }

    /// `line_of` as a canonical client would have spaced it — single
    /// spaces, nothing after the last token — except that one separator
    /// in eight is still any of `SEPS`: the lines the in-place tier takes
    /// and their nearest misses. `crlf` ends it `\r\n`-style.
    fn tidy_line_of(picks: &[(u8, u8)], crlf: bool) -> Vec<u8> {
        let last = picks.len().saturating_sub(1);
        let tidied: Vec<(u8, u8)> = picks
            .iter()
            .enumerate()
            .map(|(i, &(tok, sep))| match (sep < 224, i == last) {
                (true, false) => (tok, 0), // SEPS[0], one space
                (true, true) => (tok, 12), // SEPS[12], nothing
                (false, _) => (tok, sep),
            })
            .collect();
        let mut line = line_of(&tidied);
        line.extend_from_slice(if crlf { b"\r" } else { b"" });
        line
    }

    /// Feed `stream` in segments ending at each of `ends` (and at its end).
    fn feed_cut_at(stream: &[u8], ends: &[usize]) -> (Vec<WireItem>, usize) {
        let (mut dec, mut got, mut from) = (LineDecoder::new(), Vec::new(), 0);
        for &end in ends.iter().chain([&stream.len()]) {
            let end = end.min(stream.len());
            if end > from {
                dec.feed(&stream[from..end], &mut got);
                from = end;
            }
        }
        (got, dec.pending())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The byte parser classifies every line exactly as the `str`
        /// parser did: near-miss request lines built from the grammar's
        /// own fragments (signs, overflow, tabs, CR, Unicode spaces,
        /// broken UTF-8) …
        #[test]
        fn byte_parser_matches_the_str_parser_on_near_requests(
            picks in prop::collection::vec((any::<u8>(), any::<u8>()), 0..8),
        ) {
            let line = line_of(&picks);
            prop_assert_eq!(classify(&line), classify_via_str(&line), "line {:?}", line);
        }

        /// … and arbitrary bytes, invalid UTF-8 included.
        #[test]
        fn byte_parser_matches_the_str_parser_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..40),
        ) {
            let line: Vec<u8> = bytes.into_iter().filter(|&b| b != b'\n').collect();
            prop_assert_eq!(classify(&line), classify_via_str(&line), "line {:?}", line);
        }

        /// Whole streams, cut into arbitrary TCP segments: every complete
        /// line is classified as the `str` parser classified it, in
        /// order, whatever the cuts (lines here stay under `MAX_LINE`;
        /// the oversized-line resync has its own tests below).
        #[test]
        fn segmented_streams_decode_line_by_line(
            lines in prop::collection::vec(
                prop::collection::vec((any::<u8>(), any::<u8>()), 0..8),
                0..12,
            ),
            cuts in prop::collection::vec(1usize..40, 1..40),
            unterminated in any::<bool>(),
        ) {
            let mut stream = Vec::new();
            let mut want = Vec::new();
            for picks in &lines {
                let line = line_of(picks);
                want.extend(classify_via_str(&line));
                stream.extend_from_slice(&line);
                stream.push(b'\n');
            }
            if unterminated {
                stream.extend_from_slice(b"REQ 1 ");
            }
            let (mut dec, mut got, mut rest) = (LineDecoder::new(), Vec::new(), &stream[..]);
            for cut in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (segment, tail) = rest.split_at((*cut).min(rest.len()));
                dec.feed(segment, &mut got);
                rest = tail;
            }
            prop_assert_eq!(got, want);
            prop_assert_eq!(dec.pending(), if unterminated { 6 } else { 0 });
        }

        /// The in-place tier, alone: whatever follows the line in the
        /// segment — nothing, a few bytes, the next line — it either
        /// declines or yields exactly what the `str` parser yields for
        /// the line, and the line's exact length.
        #[test]
        fn in_place_tier_agrees_with_the_str_parser_or_declines(
            picks in prop::collection::vec((any::<u8>(), any::<u8>()), 0..8),
            crlf in any::<bool>(),
            slack in 0usize..12,
        ) {
            let line = tidy_line_of(&picks, crlf);
            let mut seg = line.clone();
            seg.push(b'\n');
            seg.extend_from_slice(&b"REQ 8 1 - 5\n"[..slack]);
            if let Some((request, len)) = canonical(&seg) {
                prop_assert_eq!(Some(request), classify_via_str(&line), "line {:?}", line);
                prop_assert_eq!(len, line.len() + 1);
            }
        }

        /// Streams of mostly canonical lines through `feed`, cut where
        /// the tier is most exposed: a byte at a time, in one write, at
        /// random, and so that some line's last token ends 0–8 bytes
        /// before a segment does (where an eight-byte load must decline
        /// rather than read past). Same items as the `str` parser, in
        /// order, every time.
        #[test]
        fn tidy_streams_decode_the_same_however_they_are_cut(
            lines in prop::collection::vec(
                (prop::collection::vec((any::<u8>(), any::<u8>()), 0..8), any::<bool>()),
                0..12,
            ),
            cuts in prop::collection::vec(1usize..40, 1..40),
            tails in prop::collection::vec((any::<usize>(), 0usize..10), 1..6),
        ) {
            let (mut stream, mut want, mut newlines) = (Vec::new(), Vec::new(), Vec::new());
            for (picks, crlf) in &lines {
                let line = tidy_line_of(picks, *crlf);
                want.extend(classify_via_str(&line));
                stream.extend_from_slice(&line);
                newlines.push(stream.len());
                stream.push(b'\n');
            }
            let bytewise: Vec<usize> = (1..stream.len()).collect();
            let random: Vec<usize> = cuts
                .iter()
                .scan(0, |at, cut| {
                    *at += cut;
                    Some(*at)
                })
                .collect();
            let mut near_tail: Vec<usize> = tails
                .iter()
                .filter(|_| !newlines.is_empty())
                .map(|&(line, past)| (newlines[line % newlines.len()] + past).saturating_sub(1))
                .collect();
            near_tail.sort_unstable();
            for ends in [&bytewise, &Vec::new(), &random, &near_tail] {
                prop_assert_eq!(feed_cut_at(&stream, ends), (want.clone(), 0), "cut at {:?}", ends);
            }
        }

        /// The reply encoder writes what `format!` wrote.
        #[test]
        fn reply_encoder_matches_format(
            id in any::<u64>(),
            small in 0u64..1000,
            micros in any::<u64>(),
            payload in 0u64..1_000_000,
        ) {
            for id in [id, small, 0, u64::MAX] {
                let payload = payload.to_string();
                let mut out = b"carried over\n".to_vec();
                push_reply(&mut out, "OK", id, payload.as_bytes());
                push_reply(&mut out, "OK", id, fmt_u64(&mut [0; 20], micros));
                push_reply(&mut out, "REJ", id, b"limit");
                push_reply(&mut out, "REJ", id, b"shed");
                push_reply(&mut out, "ERR", id, b"");
                let want = format!(
                    "carried over\nOK {id} {payload}\nOK {id} {micros}\nREJ {id} limit\nREJ {id} shed\nERR {id}\n"
                );
                prop_assert_eq!(String::from_utf8(out).unwrap(), want);
            }
        }
    }

    #[test]
    fn every_line_the_generators_send_is_taken_in_place() {
        let open_loop = (1 << 62) | (3 << 40); // loadgen's open-loop ids: 19 digits
        let ids = [
            1,
            63,
            64,
            128,
            1_234_567_890_123,
            open_loop | 1,
            open_loop | 64,
        ];
        let keys = [
            None,
            Some(0),
            Some(7),
            Some(u64::from(u32::MAX)),
            Some(open_loop),
        ];
        for (id, api, key) in ids
            .into_iter()
            .flat_map(|id| [0, 2, 17].map(|api| (id, api)))
            .flat_map(|(id, api)| keys.map(|key| (id, api, key)))
        {
            // `format_req` is also the benchmark generator's four shapes:
            // keyed or keyless, every 64th id carrying itself as a trace.
            let line = crate::loadgen::format_req(id, api, key);
            let trace = id
                .is_multiple_of(crate::loadgen::TRACE_SAMPLE)
                .then_some(id);
            let want = WireItem::Request {
                id,
                api,
                key,
                trace,
            };
            for ending in ["\n", "\r\n"] {
                let mut seg = line.trim_end().to_owned() + ending;
                let len = seg.len();
                seg.push_str("REQ 1 0\n"); // the next line: room for the loads
                assert_eq!(canonical(seg.as_bytes()), Some((want, len)), "{seg:?}");
            }
        }
    }

    #[test]
    fn the_digit_test_knows_every_byte_at_every_lane() {
        for lane in 0..8 {
            for byte in 0..=u8::MAX {
                let mut word = *b"12345678";
                word[lane] = byte;
                let n = word.iter().take_while(|b| b.is_ascii_digit()).count();
                let value = word[..n]
                    .iter()
                    .fold(0, |v, b| 10 * v + u64::from(b - b'0'));
                assert_eq!(chunk(&word, 0), Some((n, value)), "{word:?}");
            }
        }
        assert_eq!(chunk(b"1234567", 0), None, "a load past the end declines");
    }

    #[test]
    fn fmt_u64_is_exact_at_every_power_of_ten() {
        let powers = (0..20).map(|k| 10u64.pow(k));
        for v in powers.flat_map(|p| [p - 1, p]).chain([u64::MAX]) {
            assert_eq!(fmt_u64(&mut [0; 20], v), v.to_string().as_bytes());
        }
    }

    #[test]
    fn number_tokens_are_what_str_parse_takes() {
        assert_eq!(
            parse_request(b"REQ +7 +2 +9 +4"),
            Some((7, 2, Some(9), Some(4)))
        );
        assert_eq!(
            parse_request(b"REQ\t7\r2\x0c9"),
            Some((7, 2, Some(9), None))
        );
        assert_eq!(
            parse_request(b"REQ 18446744073709551615 0"),
            Some((u64::MAX, 0, None, None))
        );
        assert_eq!(parse_request(b"REQ 18446744073709551616 0"), None);
        assert_eq!(parse_request(b"REQ 007 0"), Some((7, 0, None, None)));
        for bad in [
            "REQ + 0",
            "REQ -7 0",
            "REQ 7 -0",
            "REQ 7 0 --",
            "REQ 7 0 9 -",
            "REQ 7\x0b0",
        ] {
            assert_eq!(parse_request(bad.as_bytes()), None, "{bad:?}");
        }
        // Trailing whitespace is trimmed the way `str::trim_end` trims:
        // vertical tab and Unicode spaces go, broken UTF-8 does not.
        let ok = Some(WireItem::Request {
            id: 7,
            api: 0,
            key: None,
            trace: None,
        });
        assert_eq!(classify(b"REQ 7 0 \x0b\r"), ok);
        assert_eq!(classify("REQ 7 0\u{a0}\u{2028} ".as_bytes()), ok);
        assert_eq!(classify("\u{3000}".as_bytes()), None);
        assert_eq!(classify(b"REQ 7 0 \xa0"), Some(WireItem::Malformed));
    }

    fn decode_all(decoder: &mut LineDecoder, bytes: &[u8]) -> Vec<WireItem> {
        let mut out = Vec::new();
        decoder.feed(bytes, &mut out);
        out
    }

    #[test]
    fn request_lines_parse_strictly() {
        assert_eq!(parse_request(b"REQ 7 2"), Some((7, 2, None, None)));
        assert_eq!(parse_request(b"REQ 0 0"), Some((0, 0, None, None)));
        assert_eq!(parse_request(b"REQ  12   1"), Some((12, 1, None, None)));
        // Optional fourth token: a coalescing resource key.
        assert_eq!(parse_request(b"REQ 7 2 9"), Some((7, 2, Some(9), None)));
        assert_eq!(parse_request(b"REQ 7 2 0"), Some((7, 2, Some(0), None)));
        assert_eq!(parse_request(b"GET 7 2"), None);
        assert_eq!(parse_request(b"REQ 7"), None);
        assert_eq!(parse_request(b"REQ 7 2 k"), None);
        assert_eq!(parse_request(b"REQ x 2"), None);
        assert_eq!(parse_request(b""), None);
    }

    #[test]
    fn trace_token_extends_the_grammar_without_breaking_old_clients() {
        // 5 tokens: key + trace.
        assert_eq!(
            parse_request(b"REQ 7 2 9 4"),
            Some((7, 2, Some(9), Some(4)))
        );
        // `-` is "no key", so traces work without coalescing.
        assert_eq!(parse_request(b"REQ 7 2 - 4"), Some((7, 2, None, Some(4))));
        assert_eq!(parse_request(b"REQ 7 2 -"), Some((7, 2, None, None)));
        // Garbage in either optional slot is malformed, not ignored.
        assert_eq!(parse_request(b"REQ 7 2 9 t"), None);
        assert_eq!(parse_request(b"REQ 7 2 - t"), None);
        // 6+ tokens stay rejected.
        assert_eq!(parse_request(b"REQ 7 2 9 4 5"), None);
        assert_eq!(parse_request(b"REQ 7 2 - 4 5"), None);
    }

    #[test]
    fn traced_lines_survive_segment_splits_and_garbage_resync() {
        // Split points land mid-trace-token, around the `-` placeholder,
        // and after an oversized-garbage resync.
        let fragments: [&[u8]; 6] = [
            b"REQ 1 0 7 4",
            b"2\nREQ 2 1 - ",
            b"9\n",
            &[b'z'; 300],
            b"\n",
            b"REQ 3 0 5 1\n",
        ];
        let mut dec = LineDecoder::new();
        let mut got = Vec::new();
        for f in fragments {
            dec.feed(f, &mut got);
        }
        assert_eq!(
            got,
            vec![
                WireItem::Request {
                    id: 1,
                    api: 0,
                    key: Some(7),
                    trace: Some(42)
                },
                WireItem::Request {
                    id: 2,
                    api: 1,
                    key: None,
                    trace: Some(9)
                },
                WireItem::Malformed,
                WireItem::Request {
                    id: 3,
                    api: 0,
                    key: Some(5),
                    trace: Some(1)
                },
            ]
        );
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn old_three_field_clients_decode_byte_identically() {
        // The exact byte stream an old client sends must produce the
        // exact items it always produced (trace simply absent).
        let input = b"REQ 1 0\nREQ 2 1 77\nREQ 3 0\n";
        let mut dec = LineDecoder::new();
        let mut got = Vec::new();
        dec.feed(input, &mut got);
        assert_eq!(
            got,
            vec![
                WireItem::Request {
                    id: 1,
                    api: 0,
                    key: None,
                    trace: None
                },
                WireItem::Request {
                    id: 2,
                    api: 1,
                    key: Some(77),
                    trace: None
                },
                WireItem::Request {
                    id: 3,
                    api: 0,
                    key: None,
                    trace: None
                },
            ]
        );
    }

    #[test]
    fn byte_at_a_time_yields_the_same_requests() {
        let input = b"REQ 1 0\nREQ 2 1\r\njunk\nREQ 3 0\n";
        let mut whole = LineDecoder::new();
        let expected = decode_all(&mut whole, input);
        assert_eq!(
            expected,
            vec![
                WireItem::Request {
                    id: 1,
                    api: 0,
                    key: None,
                    trace: None
                },
                WireItem::Request {
                    id: 2,
                    api: 1,
                    key: None,
                    trace: None
                },
                WireItem::Malformed,
                WireItem::Request {
                    id: 3,
                    api: 0,
                    key: None,
                    trace: None
                },
            ]
        );
        // Same stream, one byte per "segment".
        let mut trickle = LineDecoder::new();
        let mut got = Vec::new();
        for b in input {
            trickle.feed(std::slice::from_ref(b), &mut got);
        }
        assert_eq!(got, expected);
        assert_eq!(trickle.pending(), 0);
    }

    #[test]
    fn fragmented_segment_boundaries_do_not_split_requests() {
        // Split points chosen to land mid-token, mid-id and around \n.
        let fragments: [&[u8]; 7] = [
            b"RE", b"Q 12", b"34 ", b"0", b"\nREQ 5", b" 1\nREQ", b" 6 0\n",
        ];
        let mut dec = LineDecoder::new();
        let mut got = Vec::new();
        for f in fragments {
            dec.feed(f, &mut got);
        }
        assert_eq!(
            got,
            vec![
                WireItem::Request {
                    id: 1234,
                    api: 0,
                    key: None,
                    trace: None
                },
                WireItem::Request {
                    id: 5,
                    api: 1,
                    key: None,
                    trace: None
                },
                WireItem::Request {
                    id: 6,
                    api: 0,
                    key: None,
                    trace: None
                },
            ]
        );
    }

    #[test]
    fn oversized_line_resyncs_at_next_newline_without_desync() {
        let mut dec = LineDecoder::new();
        let mut got = Vec::new();
        // An unbounded garbage line arriving in chunks…
        dec.feed(&[b'x'; 200], &mut got);
        assert!(got.is_empty(), "still under MAX_LINE, just buffered");
        dec.feed(&[b'x'; 200], &mut got);
        assert_eq!(got, vec![WireItem::Malformed], "flagged exactly once");
        dec.feed(&[b'x'; 10_000], &mut got);
        assert_eq!(got.len(), 1, "no per-chunk re-flagging while discarding");
        assert_eq!(dec.pending(), 0, "oversized bytes are not hoarded");
        // …then the newline lands mid-segment and framing resumes clean.
        dec.feed(b"xxx\nREQ 9 0\n", &mut got);
        assert_eq!(
            got,
            vec![
                WireItem::Malformed,
                WireItem::Request {
                    id: 9,
                    api: 0,
                    key: None,
                    trace: None
                }
            ]
        );
    }

    #[test]
    fn garbage_and_binary_lines_flag_without_killing_the_stream() {
        let mut dec = LineDecoder::new();
        let mut got = Vec::new();
        dec.feed(b"\xff\xfe\x00\nREQ 4 0\n\n  \nREQ 5 0\n", &mut got);
        assert_eq!(
            got,
            vec![
                WireItem::Malformed, // invalid utf-8
                WireItem::Request {
                    id: 4,
                    api: 0,
                    key: None,
                    trace: None
                },
                // blank and whitespace-only lines are silently skipped
                WireItem::Request {
                    id: 5,
                    api: 0,
                    key: None,
                    trace: None
                },
            ]
        );
    }

    #[test]
    fn exactly_max_line_is_still_judged_not_discarded() {
        let mut dec = LineDecoder::new();
        let mut got = Vec::new();
        let mut line = vec![b'y'; MAX_LINE];
        line.push(b'\n');
        line.extend_from_slice(b"REQ 1 0\n");
        dec.feed(&line, &mut got);
        assert_eq!(
            got,
            vec![
                WireItem::Malformed,
                WireItem::Request {
                    id: 1,
                    api: 0,
                    key: None,
                    trace: None
                }
            ]
        );
    }
}
