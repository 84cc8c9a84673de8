//! Manifest parse-error coverage: every diagnostic carries the 1-based
//! line it happened on (a typo in a campaign plan must fail in seconds,
//! pointing at the line, not silently skip a figure), and the error
//! renders that line number for humans.

use dri_experiments::manifest::{self, Job, Manifest, ManifestError};
use dri_experiments::Config;

/// Parses `text` onto a default config.
fn parse(text: &str) -> Result<Manifest, ManifestError> {
    manifest::parse(text, &mut Config::default())
}

/// Asserts `text` fails on `line` with a message containing `needle`.
fn assert_fails_at(text: &str, line: usize, needle: &str) {
    let err = match parse(text) {
        Err(err) => err,
        Ok(_) => panic!("`{text}` should not parse"),
    };
    assert_eq!(err.line, line, "wrong line for `{text}`: {err}");
    assert!(
        err.message.contains(needle),
        "diagnostic for `{text}` should mention `{needle}`: {err}"
    );
    // Display renders the location the way editors expect it.
    assert!(
        format!("{err}").starts_with(&format!("manifest line {line}:")),
        "{err}"
    );
}

#[test]
fn unknown_jobs_point_at_their_line() {
    assert_fails_at("figure3\nfigure9\n", 2, "figure9");
    assert_fails_at("\n\n\nnot_a_job\n", 4, "not_a_job");
    // The diagnostic teaches the valid vocabulary.
    let err = parse("bogus\n").expect_err("unknown job");
    for job in Job::all() {
        assert!(err.message.contains(job.name()), "{err}");
    }
    assert!(err.message.contains("`all`"), "{err}");
}

#[test]
fn unknown_options_point_at_their_line() {
    assert_fails_at("quick = on\nworkers = 4\nfigure3\n", 2, "workers");
    let err = parse("workers = 4\n").expect_err("unknown option");
    for known in ["quick", "threads", "store", "shards"] {
        assert!(err.message.contains(known), "{err}");
    }
}

#[test]
fn malformed_values_point_at_their_line() {
    assert_fails_at("quick = maybe\n", 1, "maybe");
    assert_fails_at("# header\nthreads = -2\n", 2, "-2");
    assert_fails_at("threads = 0\n", 1, "positive");
    assert_fails_at("store =\n", 1, "needs a value");
    assert_fails_at("shards =   # trailing comment\n", 1, "needs a value");
    assert_fails_at("shards = localhost\n", 1, "host:port");
}

#[test]
fn options_after_jobs_point_at_the_offending_option() {
    assert_fails_at("figure3\nquick = on\n", 2, "before the first job");
    assert_fails_at(
        "quick = on\nfigure4\nstore = /tmp/x\n",
        3,
        "before the first job",
    );
}

#[test]
fn comments_and_blanks_do_not_shift_line_numbers() {
    let text = "\
# campaign plan
quick = on          # smoke scale

# jobs
figure3
figure7
";
    assert_fails_at(text, 6, "figure7");
}

#[test]
fn line_zero_renders_without_a_location() {
    // Line 0 is reserved for whole-file errors; the Display contract
    // matters for tools that prefix file names.
    let err = ManifestError {
        line: 0,
        message: "empty plan".to_owned(),
    };
    assert_eq!(format!("{err}"), "manifest: empty plan");
}

#[test]
fn first_error_wins() {
    // Parsing is strict and sequential: the earliest broken line is the
    // one reported, even when later lines are also broken.
    let err = parse("threads = zero\nbogus_job\n").expect_err("two errors");
    assert_eq!(err.line, 1);
    assert!(err.message.contains("zero"), "{err}");
}

#[test]
fn valid_plans_still_parse_after_error_paths() {
    // Guard against over-eager strictness: a representative valid plan
    // with every option, comments, and duplicate jobs.
    let mut config = Config::default();
    let plan = manifest::parse(
        "quick = off\nthreads = 2\nstore = /tmp/s\nshards = h:1\n\nfigure5\nall\nfigure5\n",
        &mut config,
    )
    .expect("valid plan");
    assert_eq!(plan.jobs.len(), Job::all().len());
    assert_eq!(config.fleet.shards, ["h:1"]);
}
