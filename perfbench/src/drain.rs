//! `degrade_drain`: the paper's E7 hot path in isolation. An embedded
//! engine on a mock clock with a sealed WAL preloads rows whose location
//! LCP has four transitions, in a table that fits the buffer pool. The
//! clock then steps across each stage boundary and `pump_one_batch`
//! drains the due backlog until none is left. A run repeats such rounds,
//! each on a fresh engine, until its time is up.
//!
//! Every end-to-end metric is defined here too, on the embedded path:
//! the preload's `Db::insert` calls are the inserts, and a few
//! purpose-bound SELECTs through a `Session` (no wire) are the selects.
//! Set against `served_mix`, they separate the serving layer from the
//! engine below it.

use std::sync::Arc;
use std::time::Instant;

use instant_common::{Duration, MockClock, Timestamp, Value};
use instant_core::query::{parser, QueryOutput};
use instant_core::{Db, Session};
use instant_workload::attacker::{forensic_needles, forensic_scan};
use instant_workload::events::{EventStream, EventStreamConfig};
use instant_workload::location::LocationDomain;

use crate::stats::{mean, median, BatchObs, BatchSummary, Tally};
use crate::world::{
    events_schema, footprint, preload, row_count, user_bytes, AnalystQueries, Answers, Class,
    DataDir, Knobs, LayerDelta, LayerSnap, ACCURATE_PURPOSE, PRELOAD_THREADS,
};
use crate::{Attribution, Layer, Report};

/// Rows per round: 23 heap pages, well inside the 256-frame pool.
const ROWS: usize = 2_000;
/// Four transitions per row: three generalizations and the expunge. A
/// day per stage keeps every stage boundary beyond the preload's hour.
const LCP: &str = "d0:1d -> d1:1d -> d2:1d -> d3:1d";
const STAGES: u64 = 4;
const SELECTS_PER_ROUND: usize = 60;
const MIN_ROUNDS: usize = 3;

fn knobs() -> Knobs {
    Knobs {
        wal_shards: 2,
        buffer_frames: 256,
        // The engine's default: each stage drains in two batches, so the
        // batch commit's fsync is a small share of the drain.
        batch_max: 1024,
        key_window: Duration::minutes(10),
        checkpoint_every: None,
    }
}

#[derive(Default)]
struct Acc {
    setups: Vec<f64>,
    space_amp: Vec<f64>,
    insert_us: Vec<f64>,
    insert_ack_us: u64,
    /// Preload throughput of each round, rows per second.
    insert_rates: Vec<f64>,
    oltp_us: Vec<f64>,
    olap_us: Vec<f64>,
    oltp_rows: Vec<f64>,
    olap_rows: Vec<f64>,
    parse_us: Vec<f64>,
    select_s: f64,
    select_round_trip_us: f64,
    declares: u64,
    selects: u64,
    select_delta: LayerDelta,
    batches: Vec<BatchObs>,
    drain: LayerDelta,
    checkpoint: LayerDelta,
    wal_written: u64,
    user_bytes: u64,
    shredded: Vec<f64>,
    heap_pages: u32,
}

/// One embedded statement: parse-timed in traced runs, then executed.
fn exec(
    session: &mut Session,
    sql: &str,
    trace: bool,
    acc: &mut Acc,
    tally: &mut Tally,
) -> Option<(instant_common::Result<QueryOutput>, f64)> {
    if trace {
        let t = Instant::now();
        let parsed = parser::parse(sql);
        acc.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        tally.op("parse", parsed)?;
    }
    let t = Instant::now();
    let r = session.execute(sql);
    let took = t.elapsed().as_secs_f64() * 1e6;
    acc.select_round_trip_us += took;
    Some((r, took))
}

#[allow(clippy::too_many_arguments)]
fn round(
    k: usize,
    dir: &DataDir,
    domain: &LocationDomain,
    seed: u64,
    at: Timestamp,
    rows: &[Vec<Value>],
    answers: &Answers,
    gen: &mut AnalystQueries<'_>,
    needles: &[&str],
    t0: Instant,
    trace: bool,
    acc: &mut Acc,
    tally: &mut Tally,
) -> Result<(), String> {
    let err =
        |what: &'static str| move |e: instant_common::Error| format!("round {k}: {what}: {e}");
    let us = |i: Instant| i.duration_since(t0).as_micros() as u64;

    // Set-up: open, create, preload.
    let started = Instant::now();
    let path = dir
        .engine_path(k)
        .map_err(|e| format!("round {k}: data dir: {e}"))?;
    let clock = MockClock::new();
    let db = Arc::new(Db::open(knobs().config(&path, seed), clock.shared()).map_err(err("open"))?);
    db.obs().set_spans_enabled(trace);
    db.create_table(events_schema("events", domain, LCP, None))
        .map_err(err("create"))?;
    // Every row is inserted at the stream's last instant: the stage
    // boundaries the drain steps across lie a day and more beyond it.
    clock.set(at);
    let ack = db.obs().commit_ack.snapshot();
    let loading = Instant::now();
    let inserted = preload(&db, "events", rows).map_err(err("insert"))?;
    acc.insert_rates
        .push(rows.len() as f64 / loading.elapsed().as_secs_f64());
    acc.insert_ack_us += db.obs().commit_ack.snapshot().sum_micros - ack.sum_micros;
    for _ in &inserted {
        tally.ok();
    }
    acc.insert_us.extend(inserted);
    acc.setups.push(started.elapsed().as_secs_f64());
    let user: u64 = rows.iter().map(|r| user_bytes(r)).sum();
    let (heap, wal, _) = footprint(&db).map_err(err("footprint"))?;
    acc.space_amp.push((heap + wal) as f64 / user as f64);
    acc.heap_pages = db.buffer_pool().disk().page_count();

    // Embedded purpose-bound SELECTs over the preloaded table.
    let mut session = Session::new(db.clone());
    let mut current = String::new();
    let before = LayerSnap::take(&db);
    let selecting = Instant::now();
    let mut done = 0;
    while done < SELECTS_PER_ROUND {
        // Counted before the statement is sent, so a statement that keeps
        // failing (a DECLARE included) still ends the round.
        done += 1;
        let q = gen.next_query();
        let want = q
            .purpose
            .clone()
            .unwrap_or_else(|| ACCURATE_PURPOSE.to_string());
        if want != current {
            acc.declares += 1;
            match exec(&mut session, &want, trace, acc, tally) {
                Some((Ok(QueryOutput::PurposeDeclared(_)), _)) => {
                    tally.ok();
                    current = want;
                }
                Some((other, _)) => {
                    tally.fail(format!("DECLARE PURPOSE answered {other:?}"));
                    continue;
                }
                None => continue,
            }
        }
        let (class, expected) = answers.expect(&q);
        let Some((r, took)) = exec(&mut session, &q.sql, trace, acc, tally) else {
            continue;
        };
        let n = match r.map_err(|e| e.to_string()).and_then(|o| row_count(&o)) {
            Ok(n) => n,
            Err(e) => {
                tally.fail(format!("{}: {e}", q.tag));
                continue;
            }
        };
        if tally.check(n == expected, || {
            format!(
                "{} returned {n} rows, expected {expected}: {}",
                q.tag, q.sql
            )
        }) {
            let (lat, rows) = match class {
                Class::Oltp => (&mut acc.oltp_us, &mut acc.oltp_rows),
                Class::Olap => (&mut acc.olap_us, &mut acc.olap_rows),
            };
            lat.push(took);
            rows.push(n as f64);
        }
    }
    acc.select_s += selecting.elapsed().as_secs_f64();
    let after = LayerSnap::take(&db);
    acc.select_delta.add(&LayerDelta::between(&before, &after));
    acc.selects += done as u64;

    // The drain: step past each stage boundary, pump until nothing is due.
    let table = db.catalog().get("events").map_err(err("catalog"))?;
    let drain_start = LayerSnap::take(&db);
    let mut fired = 0u64;
    for stage in 1..=STAGES {
        clock.set(at + Duration::days(stage));
        let step = us(Instant::now());
        let mut stage_fired = 0u64;
        loop {
            match db.scheduler().next_due() {
                Some(due) if due <= db.now() => {}
                _ => break,
            }
            let ack = trace.then(|| db.obs().commit_ack.snapshot());
            let start = us(Instant::now());
            let r = db.pump_one_batch();
            let end = us(Instant::now());
            let Some(report) = tally.op("pump_one_batch", r) else {
                break;
            };
            acc.batches.push(BatchObs {
                due_us: step,
                start_us: start,
                end_us: end,
                fired: report.fired as u64,
                deferred: report.deferred as u64,
                ack_us: ack
                    .map(|a| db.obs().commit_ack.snapshot().sum_micros - a.sum_micros)
                    .unwrap_or(0),
            });
            stage_fired += report.fired as u64;
            if report.fired == 0 && report.deferred == 0 {
                break;
            }
        }
        tally.check(stage_fired == ROWS as u64, || {
            format!("round {k} stage {stage}: {stage_fired} transitions fired, expected {ROWS}")
        });
        fired += stage_fired;
    }
    let drain_end = LayerSnap::take(&db);
    acc.drain
        .add(&LayerDelta::between(&drain_start, &drain_end));
    tally.check(fired == ROWS as u64 * STAGES, || {
        format!(
            "round {k}: {fired} transitions, expected {}",
            ROWS as u64 * STAGES
        )
    });
    match table.live_count() {
        Ok(n) => {
            tally.check(n == 0, || {
                format!("round {k}: {n} live tuples after the drain")
            });
        }
        Err(e) => tally.fail(format!("round {k}: live_count: {e}")),
    }

    // Closing checkpoint, then the forensic adversary.
    let ck_before = LayerSnap::take(&db);
    tally.op("checkpoint", db.checkpoint());
    let ck_after = LayerSnap::take(&db);
    acc.checkpoint
        .add(&LayerDelta::between(&ck_before, &ck_after));
    acc.shredded.push(db.keystore().shredded_count() as f64);
    let (_, _, written) = footprint(&db).map_err(err("footprint"))?;
    acc.wal_written += written;
    acc.user_bytes += user;
    let scanner = forensic_needles(needles.iter().copied());
    match forensic_scan(&db, &scanner) {
        Ok(report) => {
            tally.check(report.clean(), || {
                format!(
                    "round {k}: forensic scan recovered {} accurate addresses",
                    report.recovered.len()
                )
            });
        }
        Err(e) => tally.fail(format!("round {k}: forensic scan: {e}")),
    }
    drop(session);
    drop(table);
    drop(db);
    dir.discard(k)
        .map_err(|e| format!("round {k}: discard: {e}"))
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let domain = &crate::world::location_domain();
    let mut stream = EventStream::new(
        EventStreamConfig {
            events_per_hour: ROWS as f64,
            users: 500,
            user_skew: 0.9,
            salary_lo: 1_000,
            salary_hi: 10_000,
        },
        domain,
        seed,
        Timestamp::ZERO,
    );
    let events = stream.take(ROWS);
    let at = events.last().expect("rows").at;
    let rows: Vec<Vec<Value>> = events.into_iter().map(|e| e.row).collect();
    let answers = Answers::of(domain, &rows);
    let mut needles: Vec<&str> = rows
        .iter()
        .map(|r| match &r[2] {
            Value::Str(s) => s.as_str(),
            _ => unreachable!("location is a string"),
        })
        .collect();
    needles.sort_unstable();
    needles.dedup();
    let mut gen = AnalystQueries::new(domain, ROWS, seed.wrapping_add(2));
    let dir = DataDir::create("degrade_drain").map_err(|e| format!("data dir: {e}"))?;

    let t0 = Instant::now();
    let budget = std::time::Duration::from_secs(seconds);
    let mut acc = Acc::default();
    let mut tally = Tally::default();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || t0.elapsed() < budget {
        round(
            rounds, &dir, domain, seed, at, &rows, &answers, &mut gen, &needles, t0, trace,
            &mut acc, &mut tally,
        )?;
        rounds += 1;
    }

    let batches = BatchSummary::of(&acc.batches);
    let mut report = Report::new("degrade_drain");
    report.info(format!("config: {}", knobs().describe()));
    report.info(format!(
        "sizes: {ROWS} rows per round, preloaded from {PRELOAD_THREADS} threads, = {} heap pages \
         vs {} pool frames; LCP '{LCP}'; \
         {SELECTS_PER_ROUND} embedded selects per round; {rounds} rounds",
        acc.heap_pages,
        knobs().buffer_frames
    ));
    report.info(format!(
        "run: {} inserts, {} oltp + {} olap selects, {} purpose declarations, {} pump batches \
         ({} transitions)",
        acc.insert_us.len(),
        acc.oltp_us.len(),
        acc.olap_us.len(),
        acc.declares,
        batches.batches,
        batches.fired
    ));
    let selects = (acc.oltp_us.len() + acc.olap_us.len()) as f64;
    report.e2e(
        "insert_per_s",
        median(&acc.insert_rates).unwrap_or(0.0),
        "1/s",
    );
    report.e2e_percentile("oltp_select_p50_us", &acc.oltp_us, 0.50, "us");
    report.e2e_percentile("oltp_select_p95_us", &acc.oltp_us, 0.95, "us");
    report.e2e_percentile("olap_select_p50_us", &acc.olap_us, 0.50, "us");
    report.e2e_percentile("olap_select_p90_us", &acc.olap_us, 0.90, "us");
    report.e2e("select_per_s", selects / acc.select_s, "1/s");
    report.e2e("degrade_per_s", batches.per_s(), "1/s");
    report.e2e("space_amp", median(&acc.space_amp).unwrap_or(0.0), "B/B");
    report.e2e("setup_s", median(&acc.setups).unwrap_or(0.0), "s");
    report.e2e_percentile("olap_select_p95_us", &acc.olap_us, 0.95, "us");
    report.e2e_percentile("insert_p50_us", &acc.insert_us, 0.50, "us");
    report.e2e_percentile("insert_p99_us", &acc.insert_us, 0.99, "us");
    report.e2e_percentile("degrade_lateness_p50_us", &batches.lateness_us, 0.50, "us");
    report.e2e_percentile("degrade_lateness_p99_us", &batches.lateness_us, 0.99, "us");

    let n_sel = acc.selects.max(1) as f64;
    let select_mean = acc.select_round_trip_us / n_sel;
    let mut drain = acc.drain.clone();
    // The query stages come from the select phase, the checkpoint from
    // the closing checkpoints; everything else from the drains.
    drain.query_total = acc.select_delta.query_total;
    drain.query_parse = acc.select_delta.query_parse;
    drain.query_exec = acc.select_delta.query_exec;
    drain.query_reply = acc.select_delta.query_reply;
    drain.checkpoint = acc.checkpoint.checkpoint;
    drain.checkpoint_max_us = acc.checkpoint.checkpoint_max_us;
    let layers = Layer {
        // No wire: the embedded call's cost outside `query.total`.
        wire_us: select_mean - acc.select_delta.query_total.sum_us as f64 / n_sel,
        reply_us: acc.select_delta.query_reply.mean_us(),
        shed: 0,
        query_errors: 0,
        parse_us: mean(&acc.parse_us),
        rows_oltp: mean(&acc.oltp_rows),
        rows_olap: mean(&acc.olap_rows),
        wal_bytes_per_user_byte: acc.wal_written as f64 / acc.user_bytes.max(1) as f64,
        shredded_windows: mean(&acc.shredded),
        setup_insert_us: mean(&acc.insert_us),
        delta: drain,
        batches,
    };
    report.means(
        mean(&acc.insert_us),
        mean(&[acc.oltp_us.as_slice(), acc.olap_us.as_slice()].concat()),
        mean(&layers.batches.engine_us),
        acc.select_delta.query_total.mean_us(),
    );
    report.layers(&layers);
    if trace {
        let n_ins = acc.insert_us.len().max(1) as f64;
        report.attribute(Attribution::embedded_insert(
            &format!("embedded Db::insert (preload from {PRELOAD_THREADS} threads)"),
            mean(&acc.insert_us),
            acc.insert_ack_us as f64 / n_ins,
        ));
        report.attribute(Attribution::embedded_select(
            "embedded SELECT via Session (with its DECLARE PURPOSE when the purpose changes)",
            select_mean,
            &acc.select_delta,
            n_sel,
        ));
        report.attribute(Attribution::batch("pump batch (drain)", &layers.batches));
    }
    Ok(report.finish(tally))
}
