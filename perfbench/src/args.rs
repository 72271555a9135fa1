//! Command-line arguments.

use crate::workload::{Workload, NAMES};

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload, seeded.
    pub workload: Workload,
    /// Seconds the end-to-end window measures for.
    pub seconds: f64,
    /// Whether this run reports per-layer metrics (`--trace 1`) instead
    /// of end-to-end ones.
    pub trace: bool,
}

/// Usage line printed with every argument error.
pub const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`;
/// every flag is required, once.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument {flag}")),
        };
        if slot.replace(value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("missing {flag}"));
    let seed: u64 = need(seed, "--seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let name = need(workload, "--workload")?;
    let workload = Workload::named(&name, seed)
        .ok_or_else(|| format!("unknown workload {name}; known: {}", NAMES.join(", ")))?;
    let seconds: f64 = need(seconds, "--seconds")?
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
        .ok_or("--seconds must be a number in (0, 600]")?;
    let trace = match need(trace, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seconds,
        trace,
    })
}
