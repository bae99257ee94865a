//! Contracts of the shared pipeline stages (`hummer_core::stages`): one
//! clock, the same spans on the shard coordinator as in a local prepare,
//! and a wizard walked through without edits equal to the pipeline.

use hummer::core::{
    fuse_prepared_traced, prepare_tables_traced, ExecutionLayout, Hummer, HummerConfig, ObsConfig,
    Parallelism, PipelineOutcome, RowMapping, Span, Wizard,
};
use hummer::datagen::scenarios::{
    cd_shopping, cleansing_service, disaster_registry, student_rosters,
};
use hummer::datagen::GeneratedWorld;
use hummer::engine::Table;
use hummer::fusion::{FunctionRegistry, ResolutionSpec};
use hummer::obs::SpanRecord;
use hummer::shard::{execute_sharded_with, key_equality_spec, LocalBackend};
use std::time::Duration;

fn worlds(entities: usize, seed: u64) -> [GeneratedWorld; 4] {
    [
        cd_shopping,
        disaster_registry,
        student_rosters,
        cleansing_service,
    ]
    .map(|scenario| scenario(entities, seed))
}

fn config(par: usize, layout: ExecutionLayout, traced: bool) -> HummerConfig {
    let mut config = HummerConfig {
        parallelism: Parallelism::degree(par),
        layout,
        ..Default::default()
    };
    config.matcher.sniff.min_similarity = 0.3;
    if traced {
        config.obs = ObsConfig::enabled(1 << 12);
    }
    config
}

/// Run `f` under a fresh trace root; return its output and the trace's spans.
fn traced<T>(config: &HummerConfig, f: impl FnOnce(&Span) -> T) -> (T, Vec<SpanRecord>) {
    let root = config.obs.tracer.trace("test");
    let id = root.trace_id().expect("enabled tracer");
    let out = f(&root);
    drop(root);
    (out, config.obs.tracer.trace_spans(id))
}

fn span<'a>(spans: &'a [SpanRecord], name: &str) -> &'a SpanRecord {
    let mut found = spans.iter().filter(|r| r.name == name);
    let first = found.next().expect("span recorded");
    assert!(found.next().is_none(), "one `{name}` span");
    first
}

/// `d` in whole µs is the summed duration of the spans `names` (each record
/// truncates its own sub-µs fraction, so k spans may sum k - 1 µs short).
fn assert_clock(d: Duration, spans: &[SpanRecord], names: &[&str]) {
    let sum: u64 = names.iter().map(|n| span(spans, n).duration_us).sum();
    let us = d.as_micros() as u64;
    assert!(
        (sum..sum + names.len() as u64).contains(&us),
        "{d:?} vs {names:?}: {sum} us"
    );
}

#[test]
fn stage_timings_are_the_span_durations() {
    let world = student_rosters(40, 11);
    let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
    let config = config(2, ExecutionLayout::Columnar, true);
    let (prepared, prep_spans) = traced(&config, |root| {
        prepare_tables_traced(&tables, &config, root).expect("prepare")
    });
    let mapping = RowMapping::identity(prepared.integrated.len()); // an empty delta
    let ((refreshed, _), delta_spans) = traced(&config, |root| {
        let refreshed = prepared.apply_delta_traced(&tables, &mapping, &config, root);
        refreshed.expect("delta")
    });
    for (t, spans) in [
        (prepared.timings, prep_spans),
        (refreshed.timings, delta_spans),
    ] {
        assert_clock(t.matching, &spans, &["match"]);
        assert_clock(t.transformation, &spans, &["transform"]);
        assert_clock(t.detection, &spans, &["detect", "cluster"]);
    }
    let registry = FunctionRegistry::standard();
    let (outcome, spans) = traced(&config, |root| {
        fuse_prepared_traced(&prepared, &[], &registry, config.parallelism, root).expect("fuse")
    });
    assert_clock(outcome.timings.fusion, &spans, &["fuse"]);
}

#[test]
fn sharded_stage_spans_match_local_prepare() {
    for world in worlds(30, 5) {
        let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        let mut config = config(2, ExecutionLayout::Columnar, true);
        let key = world.sources[0].table.schema().names()[0].to_string();
        config.detector.candidates = key_equality_spec(key);
        let registry = FunctionRegistry::standard();
        let (_, local) = traced(&config, |root| {
            prepare_tables_traced(&tables, &config, root).expect("prepare")
        });
        let (sharded, spans) = traced(&config, |root| {
            execute_sharded_with(&tables, &config, 3, &[], &registry, &LocalBackend, root)
                .expect("sharded")
        });
        for stage in ["match", "transform"] {
            assert_eq!(span(&spans, stage).counters, span(&local, stage).counters);
        }
        let t = sharded.outcome.timings;
        assert_clock(t.detection, &spans, &["plan", "scatter"]);
        assert_clock(t.fusion, &spans, &["combine"]);
    }
}

/// Everything user-visible of an outcome, rendered bit-exactly.
fn fingerprint(o: &PipelineOutcome) -> String {
    let parts = (o.result.schema().names(), o.result.rows(), &o.lineage);
    let conflicts = (&o.sample_conflicts, o.conflict_count);
    format!("{parts:?} {:?} {conflicts:?}", o.detection)
}

#[test]
fn wizard_without_edits_equals_automatic_pipeline() {
    for world in worlds(24, 3) {
        let aliases: Vec<&str> = world.sources.iter().map(|s| s.table.name()).collect();
        for (layout, degree) in [ExecutionLayout::Row, ExecutionLayout::Columnar]
            .into_iter()
            .flat_map(|layout| (1..=4).map(move |degree| (layout, degree)))
        {
            let mut hummer = Hummer::with_config(config(degree, layout, false));
            for s in &world.sources {
                let repo = hummer.repository_mut();
                repo.register_table(s.table.name(), s.table.clone())
                    .unwrap();
            }
            let config = hummer.config().clone();
            let mut wizard = Wizard::start(hummer.repository(), &aliases, config).unwrap();
            let integrated = wizard.confirm_matching().unwrap();
            let resolutions = match integrated.schema().contains("Title") {
                true => vec![("Title".to_string(), ResolutionSpec::named("longest"))],
                false => Vec::new(),
            };
            wizard.run_detection().unwrap();
            wizard.confirm_duplicates().unwrap();
            for (column, spec) in &resolutions {
                wizard.set_resolution(column.clone(), spec.clone()).unwrap();
            }
            let stepped = wizard.finish(&FunctionRegistry::standard()).unwrap();
            let auto = hummer.fuse_sources(&aliases, &resolutions).unwrap();
            let at = format!("{layout:?}, degree {degree}");
            assert_eq!(fingerprint(&stepped), fingerprint(&auto), "{at}");
        }
    }
}
