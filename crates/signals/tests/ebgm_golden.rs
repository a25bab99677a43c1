//! Golden-bits test for the MGPS layer: `ebgm()` under the default prior
//! and the 0.999 gamma quantiles that bracket its posterior mixture must
//! reproduce, as exact `f64` bit patterns, the values checked in at
//! `tests/golden/ebgm_bits.txt` over a fixed (n, E) grid.
//!
//! The engine differential suite cannot catch a change here — its legacy
//! reference calls the same `ebgm()` — so this file is what pins the
//! special-function arithmetic while it is restructured for speed.
//!
//! Regenerate only after an intentional change to the scores with
//! `UPDATE_GOLDEN=1 cargo test -p maras-signals --test ebgm_golden`.

use maras_signals::gamma::gamma_quantile;
use maras_signals::{ebgm, GammaMixturePrior};
use std::fmt::Write;
use std::path::PathBuf;

const EXPECTED: [f64; 10] = [1e-9, 1e-3, 0.1, 0.5, 1.0, 2.0, 7.5, 40.0, 300.0, 5000.0];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ebgm_bits.txt")
}

/// One line per grid cell: `n`, `E`'s bits, then the bits of EBGM, EB05,
/// EB95, the posterior weight, and the 0.999 quantiles of both posterior
/// components (shape `α + n`, rate `β + E`).
fn render() -> String {
    let prior = GammaMixturePrior::default();
    let mut out = String::from("# n e ebgm eb05 eb95 posterior_w1 q999_1 q999_2\n");
    for n in 0..=64u64 {
        for e in EXPECTED {
            let s = ebgm(n, e, &prior);
            let nf = n as f64;
            let q1 = gamma_quantile(0.999, prior.alpha1 + nf, prior.beta1 + e);
            let q2 = gamma_quantile(0.999, prior.alpha2 + nf, prior.beta2 + e);
            let bits = [e, s.ebgm, s.eb05, s.eb95, s.posterior_w1, q1, q2].map(f64::to_bits);
            write!(out, "{n}").unwrap();
            for b in bits {
                write!(out, " {b:016x}").unwrap();
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn ebgm_bits_match_golden_file() {
    let rendered = render();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(golden.lines().count(), 1 + 65 * EXPECTED.len());
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {i} of {path:?} drifted");
    }
    assert_eq!(rendered, golden);
}
