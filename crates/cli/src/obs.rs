//! CLI wiring for the observability layer: flag parsing, observer
//! construction, and end-of-run reporting.
//!
//! The simulation itself only ever sees an [`Observer`]; this module
//! owns the concrete sinks (JSONL file, in-memory ring) and the shared
//! profiler, and turns them into user-facing artifacts once the run
//! completes. Everything diagnostic goes to stderr — stdout stays
//! reserved for results.

use std::cell::RefCell;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::rc::Rc;

use amjs_obs::{JsonlSink, Observer, Profiler, RingSink, SharedProfiler};

use crate::args::{ArgError, FlagSpec, ParsedArgs};

/// The observability flags of `simulate`.
pub fn obs_flag_specs() -> Vec<FlagSpec> {
    vec![
        FlagSpec::value(
            "trace",
            "write the full decision trace as JSONL to this path",
        ),
        FlagSpec::value(
            "trace-tail",
            "keep the last N trace records in a ring buffer; dump to stderr at exit",
        ),
        FlagSpec::switch(
            "profile",
            "profile the scheduler hot paths; print the span table to stderr",
        ),
        FlagSpec::value(
            "profile-json",
            "write the profiling spans as JSON to this path (implies --profile)",
        ),
        FlagSpec::switch("quiet", "print only the summary CSV on stdout"),
    ]
}

/// Parsed observability flags.
pub struct ObsFlags {
    pub trace: Option<PathBuf>,
    pub trace_tail: Option<usize>,
    pub profile: bool,
    pub profile_json: Option<PathBuf>,
}

impl ObsFlags {
    /// Parse and cross-validate the observability flags.
    pub fn from_args(args: &ParsedArgs) -> Result<Self, ArgError> {
        let trace = args.get("trace").map(PathBuf::from);
        let trace_tail = args.get_opt::<usize>("trace-tail")?;
        if trace.is_some() && trace_tail.is_some() {
            return Err(ArgError(
                "--trace and --trace-tail are mutually exclusive: pick the full \
                 JSONL file or the bounded in-memory tail"
                    .to_string(),
            ));
        }
        if trace_tail == Some(0) {
            return Err(ArgError(
                "--trace-tail: the ring must hold at least 1 record".to_string(),
            ));
        }
        let profile_json = args.get("profile-json").map(PathBuf::from);
        let profile = args.get_bool("profile") || profile_json.is_some();
        Ok(ObsFlags {
            trace,
            trace_tail,
            profile,
            profile_json,
        })
    }

    /// Build the observer and the session handles for end-of-run
    /// reporting. Creates the trace file immediately so a bad path
    /// fails before the simulation starts.
    pub fn build(&self) -> Result<(Observer, ObsSession), ArgError> {
        let mut obs = Observer::disabled();
        let mut session = ObsSession {
            jsonl: None,
            ring: None,
            profiler: None,
            profile_table: self.profile,
            profile_json: self.profile_json.clone(),
        };
        if let Some(path) = &self.trace {
            let file = File::create(path)
                .map_err(|e| ArgError(format!("--trace: cannot create {}: {e}", path.display())))?;
            let sink = Rc::new(RefCell::new(JsonlSink::new(BufWriter::new(file))));
            obs = obs.with_sink(sink.clone());
            session.jsonl = Some((path.clone(), sink));
        }
        if let Some(n) = self.trace_tail {
            let ring = Rc::new(RefCell::new(RingSink::new(n)));
            obs = obs.with_sink(ring.clone());
            session.ring = Some(ring);
        }
        if self.profile {
            let prof: SharedProfiler = Rc::new(RefCell::new(Profiler::new()));
            obs = obs.with_profiler(prof.clone());
            session.profiler = Some(prof);
        }
        Ok((obs, session))
    }
}

/// A shared JSONL sink writing through a buffered trace file.
type SharedJsonl = Rc<RefCell<JsonlSink<BufWriter<File>>>>;

/// Handles retained by the CLI across the run, reported at the end.
pub struct ObsSession {
    jsonl: Option<(PathBuf, SharedJsonl)>,
    ring: Option<Rc<RefCell<RingSink>>>,
    profiler: Option<SharedProfiler>,
    profile_table: bool,
    profile_json: Option<PathBuf>,
}

impl ObsSession {
    /// Report everything the observer collected. The observer itself is
    /// already flushed by the run; this only formats and writes the
    /// user-facing artifacts (all diagnostics on stderr). A trace the
    /// disk refused is an error: the run does not report success with
    /// a truncated trace.
    pub fn finalize(self) -> Result<(), ArgError> {
        if let Some((path, sink)) = &self.jsonl {
            let sink = sink.borrow();
            if let Some(e) = sink.error() {
                return Err(ArgError(format!(
                    "--trace: cannot write {} after {} records: {e}",
                    path.display(),
                    sink.written()
                )));
            }
            eprintln!(
                "amjs: wrote {} trace records to {}",
                sink.written(),
                path.display()
            );
        }
        if let Some(ring) = &self.ring {
            let ring = ring.borrow();
            eprintln!(
                "amjs: trace tail — retained {} of {} records ({} overwritten):",
                ring.tail().len(),
                ring.total_recorded(),
                ring.dropped()
            );
            eprint!("{}", ring.tail_jsonl());
        }
        if let Some(prof) = &self.profiler {
            let prof = prof.borrow();
            if self.profile_table {
                eprint!("{}", prof.table());
            }
            if let Some(path) = &self.profile_json {
                std::fs::write(path, prof.to_json())
                    .map_err(|e| ArgError(format!("cannot write {}: {e}", path.display())))?;
                eprintln!("amjs: wrote profile JSON to {}", path.display());
            }
        }
        Ok(())
    }
}
