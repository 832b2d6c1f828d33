//! Command-line parsing: `--workload NAME --seed N --seconds N --trace 0|1`.
//! Every malformed, missing, repeated or unknown argument is an `Err`
//! with a message; nothing here panics.

use crate::workloads::Workload;

/// Upper bound on `--seconds`, so a typo cannot pin the machine for days.
pub const MAX_SECONDS: u64 = 3_600;

/// Parsed arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement window, seconds (at least 1).
    pub seconds: u64,
    /// `true` for the traced per-layer run.
    pub trace: bool,
}

/// Parses the arguments after the program name.
pub fn parse<I, S>(argv: I) -> Result<Args, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_ref().to_string();
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            other => return Err(format!("unknown argument '{other}'")),
        };
        let Some(value) = it.next() else {
            return Err(format!("{flag} needs a value"));
        };
        if slot.is_some() {
            return Err(format!("{flag} given twice"));
        }
        *slot = Some(value.as_ref().to_string());
    }

    let workload = workload.ok_or("missing --workload")?;
    let workload = Workload::from_name(&workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload '{workload}' (expected one of {})",
            names.join(", ")
        )
    })?;
    let seed = seed.ok_or("missing --seed")?;
    let seed: u64 = seed
        .parse()
        .map_err(|_| format!("invalid --seed '{seed}' (expected an unsigned integer)"))?;
    let seconds = seconds.ok_or("missing --seconds")?;
    let seconds: u64 = match seconds.parse() {
        Ok(s) if (1..=MAX_SECONDS).contains(&s) => s,
        _ => {
            return Err(format!(
                "invalid --seconds '{seconds}' (expected 1..={MAX_SECONDS})"
            ))
        }
    };
    let trace = match trace.ok_or("missing --trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("invalid --trace '{other}' (expected 0 or 1)")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_every_workload_and_the_seed_verbatim() {
        for w in Workload::ALL {
            let line = format!(
                "--workload {} --seed 18446744073709551615 --seconds 10 --trace 1",
                w.name()
            );
            let a = parse(argv(&line)).unwrap();
            assert_eq!(a.workload, w);
            assert_eq!(a.seed, u64::MAX);
            assert_eq!(a.seconds, 10);
            assert!(a.trace);
        }
        let a = parse(argv("--trace 0 --seconds 1 --seed 0 --workload isp-owan")).unwrap();
        assert_eq!((a.seed, a.trace), (0, false));
    }

    #[test]
    fn different_seeds_give_different_inputs_and_equal_seeds_equal_ones() {
        let a = crate::workloads::Workload::InterdcChaos.instance_seeds(7);
        let b = crate::workloads::Workload::InterdcChaos.instance_seeds(8);
        assert_eq!(
            a,
            crate::workloads::Workload::InterdcChaos.instance_seeds(7)
        );
        assert!(a.iter().all(|s| !b.contains(s)));
    }

    #[test]
    fn malformed_and_truncated_arguments_are_errors() {
        let full = "--workload isp-owan --seed 3 --seconds 10 --trace 0";
        let words = argv(full);
        // Every truncation of a valid line is rejected.
        for cut in 0..words.len() {
            assert!(
                parse(&words[..cut]).is_err(),
                "accepted {:?}",
                &words[..cut]
            );
        }
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload isp-owan --seed -1 --seconds 10 --trace 0",
            "--workload isp-owan --seed 1e3 --seconds 10 --trace 0",
            "--workload isp-owan --seed 18446744073709551616 --seconds 10 --trace 0",
            "--workload isp-owan --seed 3 --seconds 0 --trace 0",
            "--workload isp-owan --seed 3 --seconds 3601 --trace 0",
            "--workload isp-owan --seed 3 --seconds ten --trace 0",
            "--workload isp-owan --seed 3 --seconds 10 --trace 2",
            "--workload isp-owan --seed 3 --seconds 10 --trace yes",
            "--workload isp-owan --seed 3 --seed 4 --seconds 10 --trace 0",
            "--workload isp-owan --seed 3 --seconds 10 --trace 0 --extra 1",
            "--workload isp-owan --seed 3 --seconds 10 --trace 0 stray",
            "--workload=isp-owan --seed 3 --seconds 10 --trace 0",
        ] {
            assert!(parse(argv(bad)).is_err(), "accepted '{bad}'");
        }
        assert!(parse(["--seed", ""]).is_err());
        assert!(parse(["--workload", "isp-owan\u{0}", "--seed", "1"]).is_err());
    }
}
