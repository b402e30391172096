//! Minimal command-line handling shared by the experiment binaries.
//!
//! Every binary accepts:
//!
//! * `--quick` — smaller network / shorter runs / fewer topologies, for CI;
//! * `--topologies N` — number of random topologies (default 10, paper; at
//!   least 1);
//! * `--runs N` — alias of `--topologies` for testbed repetitions (paper: 5);
//! * `--seed N` — base seed (default 1);
//! * `--probe-rate X` — probe-interval scaling factor;
//! * `--filter S` — only run configurations whose name contains `S`.

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Reduced configuration for fast runs.
    pub quick: bool,
    /// Number of topologies / repetitions.
    pub topologies: Option<usize>,
    /// Base seed.
    pub seed: u64,
    /// Probe-rate factor override.
    pub probe_rate: Option<f64>,
    /// Substring filter on configuration names.
    pub filter: Option<String>,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            quick: false,
            topologies: None,
            seed: 1,
            probe_rate: None,
            filter: None,
        }
    }
}

/// Why a command line was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// `--help`, an unknown flag, a missing or unparseable value.
    Usage(String),
    /// `--topologies 0`: a matrix with no seeds has no baseline to
    /// normalize against.
    NoTopologies,
    /// A probe rate that is not positive and finite (NaN, inf, <= 0).
    BadProbeRate(f64),
    /// `seed + topologies - 1` does not fit in a `u64`.
    SeedOverflow {
        /// The base seed.
        seed: u64,
        /// Seeds requested.
        count: usize,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => f.write_str(msg),
            CliError::NoTopologies => f.write_str("--topologies must be at least 1"),
            CliError::BadProbeRate(r) => {
                write!(f, "probe rate must be positive and finite, got {r}")
            }
            CliError::SeedOverflow { seed, count } => {
                write!(f, "{count} seeds from --seed {seed} overflow u64")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// Print the error and exit with status 2.
    pub fn exit(&self) -> ! {
        eprintln!("{self}");
        std::process::exit(2);
    }
}

impl CliArgs {
    /// Parse from an iterator of arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Unknown flags, bad values, zero topologies, non-finite or
    /// non-positive probe rates, and seed ranges that overflow `u64`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<CliArgs, CliError> {
        let usage = |msg: String| CliError::Usage(msg);
        let mut out = CliArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--topologies" | "--runs" => {
                    let v = it
                        .next()
                        .ok_or_else(|| usage(format!("{a} needs a value")))?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| usage(format!("bad value for {a}: {v}")))?;
                    if n == 0 {
                        return Err(CliError::NoTopologies);
                    }
                    out.topologies = Some(n);
                }
                "--seed" => {
                    let v = it
                        .next()
                        .ok_or_else(|| usage("--seed needs a value".into()))?;
                    out.seed = v.parse().map_err(|_| usage(format!("bad seed: {v}")))?;
                }
                "--probe-rate" => {
                    let v = it
                        .next()
                        .ok_or_else(|| usage("--probe-rate needs a value".into()))?;
                    let r: f64 = v
                        .parse()
                        .map_err(|_| usage(format!("bad probe rate: {v}")))?;
                    if !(r.is_finite() && r > 0.0) {
                        return Err(CliError::BadProbeRate(r));
                    }
                    out.probe_rate = Some(r);
                }
                "--filter" => {
                    let v = it
                        .next()
                        .ok_or_else(|| usage("--filter needs a value".into()))?;
                    out.filter = Some(v);
                }
                "--help" | "-h" => {
                    return Err(usage(
                        "usage: [--quick] [--topologies N] [--seed N] [--probe-rate X] \
                         [--filter S]"
                            .into(),
                    ))
                }
                other => return Err(usage(format!("unknown argument: {other}"))),
            }
        }
        if let Some(n) = out.topologies {
            out.seeds(n)?;
        }
        Ok(out)
    }

    /// Parse from the process arguments, exiting with a message on error.
    pub fn from_env() -> CliArgs {
        CliArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| e.exit())
    }

    /// Whether a configuration named `name` passes the `--filter` (all do
    /// when no filter was given).
    pub fn matches(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// The seeds to run: `topologies` (or `default_n`, at most 3 with
    /// `--quick`) seeds starting at `seed`.
    ///
    /// # Errors
    ///
    /// [`CliError::SeedOverflow`] if the last seed does not fit in a `u64`.
    pub fn seeds(&self, default_n: usize) -> Result<Vec<u64>, CliError> {
        let n = self.topologies.unwrap_or(if self.quick {
            default_n.min(3)
        } else {
            default_n
        });
        let overflow = CliError::SeedOverflow {
            seed: self.seed,
            count: n,
        };
        let last = u64::try_from(n.saturating_sub(1)).map_err(|_| overflow.clone())?;
        self.seed.checked_add(last).ok_or(overflow)?;
        Ok((0..n as u64).map(|i| self.seed + i).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<CliArgs, CliError> {
        CliArgs::parse(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, CliArgs::default());
        assert_eq!(a.seeds(10).unwrap().len(), 10);
    }

    #[test]
    fn quick_reduces_seeds() {
        let a = parse(&["--quick"]).unwrap();
        assert_eq!(a.seeds(10).unwrap().len(), 3);
    }

    #[test]
    fn explicit_topologies_override() {
        let a = parse(&["--quick", "--topologies", "7"]).unwrap();
        assert_eq!(a.seeds(10).unwrap().len(), 7);
    }

    #[test]
    fn seed_base_offsets() {
        let a = parse(&["--seed", "100", "--topologies", "2"]).unwrap();
        assert_eq!(a.seeds(10).unwrap(), vec![100, 101]);
    }

    #[test]
    fn probe_rate_parses() {
        let a = parse(&["--probe-rate", "5"]).unwrap();
        assert_eq!(a.probe_rate, Some(5.0));
        assert!(parse(&["--probe-rate", "-1"]).is_err());
    }

    #[test]
    fn zero_topologies_is_an_error() {
        assert_eq!(parse(&["--topologies", "0"]), Err(CliError::NoTopologies));
        assert_eq!(parse(&["--runs", "0"]), Err(CliError::NoTopologies));
    }

    #[test]
    fn non_finite_probe_rates_are_errors() {
        for bad in ["nan", "NaN", "inf", "-inf", "0"] {
            assert!(
                matches!(
                    parse(&["--probe-rate", bad]),
                    Err(CliError::BadProbeRate(_))
                ),
                "--probe-rate {bad} accepted"
            );
        }
    }

    #[test]
    fn overflowing_seed_ranges_are_errors() {
        let max = u64::MAX.to_string();
        assert_eq!(
            parse(&["--seed", &max, "--topologies", "2"]),
            Err(CliError::SeedOverflow {
                seed: u64::MAX,
                count: 2
            })
        );
        // One seed at the top of the range still fits.
        let a = parse(&["--seed", &max, "--topologies", "1"]).unwrap();
        assert_eq!(a.seeds(10).unwrap(), vec![u64::MAX]);
        // Without --topologies the binary's default count is checked.
        let a = parse(&["--seed", &max]).unwrap();
        assert!(matches!(a.seeds(10), Err(CliError::SeedOverflow { .. })));
    }

    #[test]
    fn unknown_flag_errors() {
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--topologies"]).is_err());
    }

    #[test]
    fn filter_matches_substring() {
        let a = parse(&["--filter", "mobile"]).unwrap();
        assert_eq!(a.filter.as_deref(), Some("mobile"));
        assert!(a.matches("mobile-metro-n500"));
        assert!(!a.matches("paper-n50"));
        assert!(parse(&["--filter"]).is_err());
        // No filter: everything matches.
        assert!(parse(&[]).unwrap().matches("anything"));
    }
}
