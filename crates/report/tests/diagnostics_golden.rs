//! Golden renders of a lint-style [`Findings`] list through the report
//! sinks. The list holds one diagnostic of each severity (error,
//! warning, info) and a counts note; its aligned-text and JSON renders
//! are pinned byte for byte, and every format must render the same
//! bytes twice (the `regen` drift gate relies on deterministic bytes).

use ipass_report::{Artifact, Findings, Format};

fn report() -> Findings {
    let mut f = Findings::new("lint — demo flow");
    f.push(
        "error",
        "threshold-mismatch",
        "wire bonding",
        "stored draw threshold 42 but \u{2308}p\u{b7}2\u{2075}\u{b3}\u{2309} = 43 for p = 0.9",
    );
    f.push(
        "warning",
        "zero-coverage-test",
        "final test",
        "test has zero fault coverage: it books cost but can detect nothing",
    );
    f.push(
        "info",
        "cost-category-never-booked",
        "program",
        "no op books the packaging category; its breakdown share is structurally zero",
    );
    f.note(
        "1 error(s), 1 warning(s), 1 info(s); \
         `ipass lint --deny-warnings` fails on warnings and errors",
    )
}

#[test]
fn txt_render_is_pinned() {
    let artifact = Artifact::Findings(report());
    let txt = artifact.render(Format::Txt).unwrap();
    let expected = "\
lint — demo flow
severity  code                        path          message
error     threshold-mismatch          wire bonding  stored draw threshold 42 but ⌈p·2⁵³⌉ = 43 for p = 0.9
warning   zero-coverage-test          final test    test has zero fault coverage: it books cost but can detect nothing
info      cost-category-never-booked  program       no op books the packaging category; its breakdown share is structurally zero
note: 1 error(s), 1 warning(s), 1 info(s); `ipass lint --deny-warnings` fails on warnings and errors
";
    assert_eq!(txt, expected);
}

#[test]
fn json_render_is_pinned() {
    let artifact = Artifact::Findings(report());
    let json = artifact.render(Format::Json).unwrap();
    let expected = r#"{
  "kind": "findings",
  "title": "lint — demo flow",
  "counts": {
    "error": 1,
    "warning": 1,
    "info": 1
  },
  "items": [
    {
      "severity": "error",
      "code": "threshold-mismatch",
      "path": "wire bonding",
      "message": "stored draw threshold 42 but ⌈p·2⁵³⌉ = 43 for p = 0.9"
    },
    {
      "severity": "warning",
      "code": "zero-coverage-test",
      "path": "final test",
      "message": "test has zero fault coverage: it books cost but can detect nothing"
    },
    {
      "severity": "info",
      "code": "cost-category-never-booked",
      "path": "program",
      "message": "no op books the packaging category; its breakdown share is structurally zero"
    }
  ],
  "notes": [
    "1 error(s), 1 warning(s), 1 info(s); `ipass lint --deny-warnings` fails on warnings and errors"
  ]
}
"#;
    assert_eq!(json, expected);
}

#[test]
fn renders_are_deterministic_and_cover_every_severity() {
    let artifact = Artifact::Findings(report());
    for format in artifact.formats() {
        let once = artifact.render(format).unwrap();
        assert_eq!(once, artifact.render(format).unwrap(), "{format}");
        for severity in ["error", "warning", "info"] {
            assert!(once.contains(severity), "{format} misses {severity}");
        }
    }
}
