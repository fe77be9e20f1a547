//! Table-driven edge-case coverage for `ServeOptions::validate` and
//! `FrontendOptions::validate`, including that construction
//! (`InferenceEngine::new` / `ServeFrontend::new`) enforces the same
//! contract instead of deferring failures to the request path.

use deepoheat::{DeepOHeat, DeepOHeatConfig};
use deepoheat_linalg::Matrix;
use deepoheat_serve::{FrontendOptions, InferenceEngine, ServeError, ServeFrontend, ServeOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model() -> DeepOHeat {
    let cfg = DeepOHeatConfig::single_branch(4, &[8], &[8], 6);
    let mut rng = StdRng::seed_from_u64(7);
    DeepOHeat::new(&cfg, &mut rng).expect("config is valid")
}

#[test]
fn serve_options_validate_table() {
    struct Case {
        name: &'static str,
        options: ServeOptions,
        ok: bool,
        mentions: &'static str,
    }
    let cases = [
        Case {
            name: "defaults are valid",
            options: ServeOptions::default(),
            ok: true,
            mentions: "",
        },
        Case {
            name: "zero cache capacity disables the cache but is valid",
            options: ServeOptions { cache_capacity: 0, ..ServeOptions::default() },
            ok: true,
            mentions: "",
        },
        Case {
            name: "one-row trunk chunks are valid (maximal splitting)",
            options: ServeOptions { trunk_chunk: 1, ..ServeOptions::default() },
            ok: true,
            mentions: "",
        },
        Case {
            name: "huge trunk chunk is valid (single-chunk evaluation)",
            options: ServeOptions { trunk_chunk: usize::MAX, ..ServeOptions::default() },
            ok: true,
            mentions: "",
        },
        Case {
            name: "zero trunk chunk is rejected",
            options: ServeOptions { trunk_chunk: 0, ..ServeOptions::default() },
            ok: false,
            mentions: "trunk_chunk",
        },
        Case {
            name: "zero trunk chunk rejected regardless of cache",
            options: ServeOptions { cache_capacity: 0, trunk_chunk: 0, ..ServeOptions::default() },
            ok: false,
            mentions: "trunk_chunk",
        },
    ];
    // Every valid case also serves: 37 points are one chunk at the default
    // size, one point per chunk at size 1 and one chunk at `usize::MAX`,
    // and the answer's bits never depend on the chunking.
    let inputs = Matrix::from_fn(2, 4, |i, j| 0.2 * i as f64 - 0.1 * j as f64);
    let coords = Matrix::from_fn(37, 3, |i, j| 0.03 * i as f64 + 0.1 * j as f64);
    let bits = |m: &Matrix| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut default_engine = InferenceEngine::new(model(), ServeOptions::default()).unwrap();
    let expected = bits(&default_engine.predict(&[&inputs], &coords).unwrap());
    for case in cases {
        let result = case.options.validate();
        assert_eq!(result.is_ok(), case.ok, "{}: {result:?}", case.name);
        // Construction must enforce the identical contract.
        let engine = InferenceEngine::new(model(), case.options.clone());
        assert_eq!(engine.is_ok(), case.ok, "{}: construction disagrees", case.name);
        if let Ok(mut engine) = engine {
            let served = engine.predict(&[&inputs], &coords);
            let served = served.unwrap_or_else(|err| panic!("{}: {err}", case.name));
            assert_eq!(bits(&served), expected, "{}: bits differ from the default", case.name);
        }
        if let Err(err) = result {
            assert!(
                matches!(err, ServeError::InvalidOptions { .. }),
                "{}: typed options error, got {err}",
                case.name
            );
            assert!(
                err.to_string().contains(case.mentions),
                "{}: {err} should mention {}",
                case.name,
                case.mentions
            );
        }
    }
}

#[test]
fn frontend_options_validate_table() {
    fn base() -> FrontendOptions {
        FrontendOptions { retry_backoff_micros: 0, ..FrontendOptions::default() }
    }
    struct Case {
        name: &'static str,
        options: FrontendOptions,
        ok: bool,
        mentions: &'static str,
    }
    let cases = [
        Case { name: "defaults are valid", options: base(), ok: true, mentions: "" },
        Case {
            name: "single shard, minimal queue",
            options: FrontendOptions { shards: 1, queue_capacity: 1, ..base() },
            ok: true,
            mentions: "",
        },
        Case {
            name: "zero retries and zero cooldown are valid",
            options: FrontendOptions { max_retries: 0, breaker_cooldown: 0, ..base() },
            ok: true,
            mentions: "",
        },
        Case {
            name: "zero-deadline default budget is valid at build time",
            options: FrontendOptions { default_deadline_micros: Some(0), ..base() },
            ok: true,
            mentions: "",
        },
        Case {
            name: "zero shards is rejected",
            options: FrontendOptions { shards: 0, ..base() },
            ok: false,
            mentions: "shards",
        },
        Case {
            name: "zero queue capacity is rejected",
            options: FrontendOptions { queue_capacity: 0, ..base() },
            ok: false,
            mentions: "queue_capacity",
        },
        Case {
            name: "zero breaker threshold is rejected",
            options: FrontendOptions { breaker_threshold: 0, ..base() },
            ok: false,
            mentions: "breaker_threshold",
        },
        Case {
            name: "nested engine options are validated too",
            options: FrontendOptions {
                engine: ServeOptions { trunk_chunk: 0, ..ServeOptions::default() },
                ..base()
            },
            ok: false,
            mentions: "trunk_chunk",
        },
    ];
    for case in cases {
        let result = case.options.validate();
        assert_eq!(result.is_ok(), case.ok, "{}: {result:?}", case.name);
        let frontend = ServeFrontend::new(model(), case.options.clone());
        assert_eq!(frontend.is_ok(), case.ok, "{}: construction disagrees", case.name);
        if let Err(err) = result {
            assert!(
                err.to_string().contains(case.mentions),
                "{}: {err} should mention {}",
                case.name,
                case.mentions
            );
        }
    }
}
