//! The `rfl-bench` command line: one experiment name (or `list` / `all`)
//! followed by the options every experiment shares.

use crate::experiments::{self, Experiment};
use rfl_metrics::TextTable;
use rfl_trace::Tracer;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small federations, few rounds — seconds per experiment (CI-friendly).
    Quick,
    /// Larger federations and round counts closer to the paper's setup.
    Full,
}

/// What the positional argument asked for.
#[derive(Clone, Copy)]
pub enum Command {
    /// Print the experiment table.
    List,
    /// Run every experiment, in table order, in this process.
    All,
    One(&'static Experiment),
}

/// Parsed experiment options.
#[derive(Clone)]
pub struct ExpArgs {
    pub scale: Scale,
    /// Number of repeated runs (seeds) for mean ± std cells.
    pub seeds: usize,
    /// Directory for CSV output (created if missing); `None` disables CSV.
    pub out_dir: Option<String>,
    /// `--study <name>` selector, checked against [`Experiment::studies`].
    pub study: Option<String>,
    /// `--trace-out <path>`: write a JSONL span journal of the whole run
    /// there and print an ASCII phase summary at exit.
    pub trace_out: Option<String>,
    /// Installed on every federation an experiment builds; enabled exactly
    /// when `--trace-out` was passed, so one journal covers the whole run.
    pub tracer: Tracer,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            scale: Scale::Quick,
            seeds: 2,
            out_dir: Some("results".to_string()),
            study: None,
            trace_out: None,
            tracer: Tracer::disabled(),
        }
    }
}

fn usage() -> String {
    let mut text = "usage: rfl-bench <experiment>|list|all [--scale quick|full] [--seeds N] \
                    [--out DIR|none] [--study NAME] [--trace-out PATH]\n"
        .to_string();
    for exp in experiments::EXPERIMENTS
        .iter()
        .filter(|exp| !exp.studies.is_empty())
    {
        text += &format!("  --study {} ({} only)\n", exp.studies.join("|"), exp.name);
    }
    text + "\n" + &experiments::list()
}

/// Parses `<experiment>|list|all` and `--scale quick|full`, `--seeds N`,
/// `--out DIR|none`, `--study NAME`, `--trace-out PATH` from an iterator of
/// arguments (typically `std::env::args` minus the program name). The error
/// is the complaint followed by the usage text and the experiment table.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<(Command, ExpArgs), String> {
    parse(args).map_err(|complaint| format!("rfl-bench: {complaint}\n\n{}", usage()))
}

fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<(Command, ExpArgs), String> {
    let mut out = ExpArgs::default();
    let mut name = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--scale" => {
                out.scale = match value()?.as_str() {
                    "quick" => Scale::Quick,
                    "full" | "paper" => Scale::Full,
                    other => return Err(format!("unknown scale '{other}' (quick|full)")),
                };
            }
            "--seeds" => {
                out.seeds = match value()?.parse() {
                    Ok(n) if n > 0 => n,
                    _ => return Err("--seeds must be a positive integer".to_string()),
                };
            }
            "--out" => out.out_dir = Some(value()?).filter(|dir| dir != "none"),
            "--study" => out.study = Some(value()?),
            "--trace-out" => out.trace_out = Some(value()?),
            _ if !a.starts_with('-') && name.is_none() => name = Some(a),
            _ => return Err(format!("unknown argument '{a}'")),
        }
    }
    let command = match name.as_deref() {
        None => return Err("no experiment named".to_string()),
        Some("list") => Command::List,
        Some("all") => Command::All,
        Some(name) => {
            Command::One(experiments::find(name).ok_or(format!("unknown experiment '{name}'"))?)
        }
    };
    let studies = match command {
        Command::One(exp) => exp.studies,
        _ => &[],
    };
    if let Some(study) = &out.study {
        if studies.is_empty() {
            return Err("--study: this experiment takes no study".to_string());
        }
        if !studies.contains(&study.as_str()) {
            return Err(format!("unknown study '{study}' ({})", studies.join("|")));
        }
    }
    if out.trace_out.is_some() {
        out.tracer = Tracer::enabled();
    }
    Ok((command, out))
}

/// Writes `content` to `<out_dir>/<name>` when CSV output is enabled.
pub fn write_output(args: &ExpArgs, name: &str, content: &str) {
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).expect("cannot create output dir");
        let path = format!("{dir}/{name}");
        std::fs::write(&path, content).expect("cannot write output file");
        println!("  wrote {path}");
    }
}

/// Prints a table and writes it as `<out_dir>/<csv>`.
pub(crate) fn print_table(args: &ExpArgs, csv: &str, table: &TextTable) {
    println!("{}", table.render());
    write_output(args, csv, &table.to_csv());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> ExpArgs {
        let named = ["fig09_params"].iter().chain(v);
        match parse_args(named.map(|s| s.to_string())) {
            Ok((_, args)) => args,
            Err(e) => panic!("{e}"),
        }
    }

    fn refused(v: &[&str]) -> String {
        match parse_args(v.iter().map(|s| s.to_string())) {
            Ok(_) => panic!("{v:?} was accepted"),
            Err(e) => e,
        }
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.seeds, 2);
        assert!(a.study.is_none());
        assert!(a.trace_out.is_none());
        // No `--trace-out`: the tracer every federation gets records nothing.
        assert!(!a.tracer.is_enabled());
    }

    #[test]
    fn parses_everything() {
        let a = parse(&[
            "--scale",
            "full",
            "--seeds",
            "3",
            "--out",
            "none",
            "--study",
            "lambda",
            "--trace-out",
            "trace.jsonl",
        ]);
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.seeds, 3);
        assert!(a.out_dir.is_none());
        assert_eq!(a.study.as_deref(), Some("lambda"));
        assert_eq!(a.trace_out.as_deref(), Some("trace.jsonl"));
        assert!(a.tracer.is_enabled());
    }

    #[test]
    fn paper_is_alias_for_full() {
        assert_eq!(parse(&["--scale", "paper"]).scale, Scale::Full);
    }

    #[test]
    fn rejects_unknown() {
        let e = refused(&["fig09_params", "--frobnicate"]);
        assert!(e.contains("unknown argument '--frobnicate'"), "{e}");
        assert!(refused(&["fig09_params", "extra"]).contains("unknown argument 'extra'"));
        assert!(refused(&["fig09_params", "--seeds", "0"]).contains("positive integer"));
        assert!(refused(&["fig09_params", "--seeds"]).contains("--seeds needs a value"));
    }

    #[test]
    fn positional_name_selects_the_experiment() {
        let named = |v: &[&str]| match parse_args(v.iter().map(|s| s.to_string())) {
            Ok((Command::One(exp), _)) => exp.name,
            _ => panic!("{v:?} did not name an experiment"),
        };
        assert_eq!(named(&["tab3_delta_size"]), "tab3_delta_size");
        // The name may follow the options.
        assert_eq!(named(&["--seeds", "1", "ext_lossy"]), "ext_lossy");
    }

    #[test]
    fn list_and_all_are_commands() {
        let command = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string())).map(|(c, _)| c);
        assert!(matches!(command(&["list"]), Ok(Command::List)));
        assert!(matches!(
            command(&["all", "--scale", "quick"]),
            Ok(Command::All)
        ));
        assert!(refused(&["all", "--study", "lambda"]).contains("takes no study"));
    }

    #[test]
    fn study_is_refused_where_nothing_reads_it() {
        let e = refused(&["tab1_cross_silo", "--study", "lambda"]);
        assert!(e.contains("takes no study"), "{e}");
        let e = refused(&["fig09_params", "--study", "lamda"]);
        assert!(
            e.contains("unknown study 'lamda' (lambda|n|e|sr|all)"),
            "{e}"
        );
    }

    #[test]
    fn unknown_name_prints_the_usage_and_the_table() {
        let e = refused(&["fig13_nothing"]);
        assert!(e.contains("unknown experiment 'fig13_nothing'"), "{e}");
        assert!(e.contains("usage: rfl-bench"), "{e}");
        assert!(e.contains("tab1_cross_silo"), "{e}");
        assert!(refused(&[]).contains("no experiment named"));
    }
}
