//! The determinism ledger, `scripts/goldens.txt`, as the root package's
//! tests read it, and the one FNV-1a they fold their values with.
//!
//! A test computes its rows and hands them to [`assert_rows`], which
//! prints each as `golden <name> <value>` (`scripts/goldens.sh` collects
//! them with `--nocapture`) and fails listing every row that differs from
//! the ledger as `name old → new`, the line `goldens.sh --check` prints.

const LEDGER: &str = include_str!("../../scripts/goldens.txt");

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a (64-bit). Deliberately not `DefaultHasher`, whose output may
/// change between Rust releases.
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// Check computed `(name, value)` rows against the ledger; every row
/// that moved is named before the test fails.
pub fn assert_rows(rows: &[(&str, u64)]) {
    let mut moved = Vec::new();
    for &(name, got) in rows {
        let new = format!("{got:#018x}");
        println!("golden {name} {new}");
        let old = LEDGER
            .lines()
            .filter(|l| !l.starts_with('#'))
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or("(none)");
        if old != new {
            moved.push(format!("{name} {old} → {new}"));
        }
    }
    assert!(
        moved.is_empty(),
        "rows of scripts/goldens.txt moved; re-record only if intentional, \
         with scripts/goldens.sh --record:\n{}",
        moved.join("\n")
    );
}
