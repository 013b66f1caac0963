//! `ingest`: two clients record disjoint pipeline chains over a Unix
//! socket as point `Record` frames into S3+SimpleDB+SQS with the
//! closure index maintained, flushing every [`FLUSH_EVERY`] records and
//! once at the end. It loads the write path: codec, the `ServeHandle`
//! writer mutex shared by two writers, the WAL, the commit daemon and
//! closure maintenance.
//!
//! One round: set up a fresh store and server, run the write phase
//! (timed), then verify every file, Q1 and Q3 over the wire and compare
//! the store fingerprint with the same flushes applied in-process.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use std::os::unix::net::UnixStream;

use frontend::{Client, Command, Reply, Server};
use pass::{FileFlush, ObjectKind, ObjectRef, Observer, TraceEvent};
use provenance_cloud::{ProvQuery, ServeHandle};
use simworld::{Blob, SimWorld};

use crate::corpus::{Corpus, Expected};
use crate::layers::{self, Probe};
use crate::net;
use crate::oracle;
use crate::report::{count, Outcome};
use crate::stats::{mean, median, ms, per, quantile, Ledger};
use crate::Args;

/// Client threads and connections.
pub const CLIENTS: usize = 2;
/// Chains each client records.
pub const CHAINS: usize = 16;
/// Steps per chain (two flushes each: the process and its output).
pub const STEPS: usize = 20;
/// Records between a client's `Flush` commands.
pub const FLUSH_EVERY: usize = 64;
/// The object each client tries to record once per round: the medium
/// dataset's BLAST fragment size, which no command frame can carry
/// under the 8 MiB cap.
pub const OVERSIZE: u64 = 8 * 1024 * 1024;

/// One client's input.
struct ClientInput {
    corpus: Corpus,
    oversize: FileFlush,
}

fn generate(seed: u64) -> Vec<ClientInput> {
    (0..CLIENTS)
        .map(|c| {
            let corpus = Corpus::chains(
                &format!("ingest{c}"),
                CHAINS,
                STEPS,
                seed.wrapping_add(c as u64),
                (c as u32 + 1) * 1_000_000,
            );
            // Seed-independent on purpose: this record fails every time.
            let mut observer = Observer::new();
            let oversize = observer
                .observe(TraceEvent::source(
                    format!("ingest{c}/oversize.bin"),
                    Blob::synthetic(0x0b1a_5700 + c as u64, OVERSIZE),
                ))
                .expect("a source event is well-formed")
                .pop()
                .expect("a source event flushes once");
            ClientInput { corpus, oversize }
        })
        .collect()
}

/// What one client's write phase did.
#[derive(Default)]
struct WriteSide {
    record_ms: Vec<f64>,
    flush_ms: Vec<f64>,
    records_ok: u64,
    records_failed: u64,
    flushes: u64,
    flushes_failed: u64,
    codec: Ledger,
    frame_bytes: u64,
    errors: Vec<String>,
}

fn write_side(client: &mut Client<UnixStream>, input: &ClientInput, traced: bool) -> WriteSide {
    let mut side = WriteSide::default();
    let flush = |side: &mut WriteSide, client: &mut frontend::Client<_>| {
        let start = Instant::now();
        match net::guarded(|| client.flush()) {
            Ok(()) => {
                side.flush_ms.push(ms(start.elapsed()));
                side.flushes += 1;
            }
            Err(e) => {
                side.flushes_failed += 1;
                side.errors.push(format!("flush: {e}"));
            }
        }
    };
    for (i, record) in input.corpus.flushes.iter().enumerate() {
        let start = Instant::now();
        match net::guarded(|| client.record(record)) {
            Ok(()) => {
                side.record_ms.push(ms(start.elapsed()));
                side.records_ok += 1;
            }
            Err(e) => {
                side.records_failed += 1;
                side.errors
                    .push(format!("record {}: {e}", record.object.render()));
            }
        }
        if traced {
            let (took, bytes) = net::codec_cost(&Command::Record(record.clone()), &Reply::Unit);
            side.codec.add("record", took);
            side.frame_bytes += bytes;
        }
        if (i + 1) % FLUSH_EVERY == 0 {
            flush(&mut side, client);
        }
    }
    flush(&mut side, client);
    side
}

/// The fault probe after the timed write phase: one record of an
/// [`OVERSIZE`] object, then a `Flush` so that, once such records go
/// through, they are committed like the rest. Returns whether the
/// record went through and whether the flush failed.
fn oversize_side(client: &mut Client<UnixStream>, input: &ClientInput) -> (bool, bool) {
    let recorded = net::guarded(|| client.record(&input.oversize)).is_ok();
    let flushed = net::guarded(|| client.flush()).is_ok();
    (recorded, !flushed)
}

/// What one client's verification did.
#[derive(Default)]
struct VerifySide {
    read_ms: Vec<f64>,
    q1_ms: Vec<f64>,
    q3_ms: Vec<f64>,
    failed: [u64; 3],
    errors: Vec<String>,
}

fn verify_side(
    client: &mut Client<UnixStream>,
    input: &ClientInput,
    expected: &Expected,
) -> VerifySide {
    let mut side = VerifySide::default();
    for flush in input
        .corpus
        .flushes
        .iter()
        .filter(|f| f.kind == ObjectKind::File)
    {
        let name = &flush.object.name;
        let start = Instant::now();
        match net::guarded(|| client.read(name)) {
            Ok(read) => {
                side.read_ms.push(ms(start.elapsed()));
                if let Err(e) = oracle::read_matches(name, &read, expected) {
                    side.errors.push(e);
                }
            }
            Err(e) => {
                side.failed[0] += 1;
                side.errors.push(format!("read {name}: {e}"));
            }
        }
        let query = ProvQuery::ProvenanceOf {
            name: name.clone(),
            version: flush.object.version,
        };
        let start = Instant::now();
        match net::guarded(|| client.query(&query)) {
            Ok(answer) => {
                side.q1_ms.push(ms(start.elapsed()));
                if let Err(e) = oracle::q1_matches(&flush.object, &answer, expected) {
                    side.errors.push(e);
                }
            }
            Err(e) => {
                side.failed[1] += 1;
                side.errors.push(format!("q1 {name}: {e}"));
            }
        }
    }
    for chain in &input.corpus.chains {
        let query = ProvQuery::DescendantsOf {
            program: chain.program.clone(),
        };
        let start = Instant::now();
        match net::guarded(|| client.query(&query)) {
            Ok(answer) => {
                side.q3_ms.push(ms(start.elapsed()));
                let want = expected.descendants_of(&chain.program);
                if let Err(e) = oracle::set_matches(&chain.program, &answer, &want, expected) {
                    side.errors.push(e);
                }
            }
            Err(e) => {
                side.failed[2] += 1;
                side.errors.push(format!("q3 {}: {e}", chain.program));
            }
        }
    }
    side
}

/// The fingerprint of the same flushes applied in-process, one writer,
/// one flush at the end; with each client's oversize record included
/// when it went through on the wire.
fn in_process_fingerprint(inputs: &[ClientInput], oversize_ok: &[bool]) -> u64 {
    let handle = ServeHandle::new(oracle::arch3_serving(&SimWorld::counting(), "ingest"));
    for (input, ok) in inputs.iter().zip(oversize_ok) {
        for flush in &input.corpus.flushes {
            handle.record(flush).expect("in-process record");
        }
        if *ok {
            handle.record(&input.oversize).expect("in-process record");
        }
    }
    handle.flush().expect("in-process flush");
    handle.fingerprint()
}

/// Pooled samples over every round of a run.
#[derive(Default)]
struct Pool {
    setup_s: Vec<f64>,
    throughput: Vec<f64>,
    record_ms: Vec<f64>,
    flush_ms: Vec<f64>,
    read_ms: Vec<f64>,
    q1_ms: Vec<f64>,
    q3_ms: Vec<f64>,
    billed: Vec<f64>,
    usd: Vec<f64>,
    observe_ms: Vec<f64>,
    write_wall: [Vec<f64>; 2],
    codec: Ledger,
    frame_bytes: u64,
    legs: Ledger,
    wire_record_us: Vec<f64>,
}

/// Runs `ingest` for `args.seconds` of whole rounds.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut pool = Pool::default();
    let mut expected: Option<Expected> = None;
    let mut fingerprints: BTreeMap<Vec<bool>, u64> = BTreeMap::new();
    let deadline = Duration::from_secs(args.seconds);
    let mut started = Instant::now();
    let mut round = 0usize;
    // Round 0 warms the allocator and caches: its checks and operation
    // counts stand, its timings are dropped and the clock starts after it.
    while round < crate::min_rounds(args) || started.elapsed() < deadline {
        // In a traced run, every other round carries the tracing legs,
        // so the untraced rounds between them measure tracing's cost.
        let traced = crate::traced_round(args, round);
        let setup = Instant::now();
        let observe = Instant::now();
        let inputs = generate(args.seed);
        pool.observe_ms.push(ms(observe.elapsed()));
        let world = SimWorld::counting();
        let store = oracle::arch3_serving(&world, "ingest");
        let (s3, db) = (store.s3().clone(), store.simpledb().clone());
        let handle = ServeHandle::new(store);
        let path = net::socket_path("ingest");
        let server = Server::bind_unix(handle, &path, CLIENTS).expect("bind the benchmark socket");
        let mut clients: Vec<_> = (0..CLIENTS)
            .map(|_| net::connect(&path).expect("connect to the benchmark socket"))
            .collect();
        pool.setup_s.push(setup.elapsed().as_secs_f64());
        let expected = expected.get_or_insert_with(|| {
            let all: Vec<FileFlush> = inputs
                .iter()
                .flat_map(|i| i.corpus.flushes.iter().cloned())
                .collect();
            Expected::of(&all)
        });

        // Write phase.
        let before = world.meters();
        let start = Instant::now();
        let sides = net::each_client(&mut clients, &inputs, |client, input| {
            write_side(client, input, traced)
        });
        let wall = start.elapsed().as_secs_f64();
        let after = world.meters();
        let probes = net::each_client(&mut clients, &inputs, oversize_side);
        let oversize_ok: Vec<bool> = probes.iter().map(|(ok, _)| *ok).collect();
        let mut ops = 0u64;
        let mut records = 0u64;
        let mut user_bytes = 0u64;
        for ((side, input), (recorded, flush_failed)) in sides.iter().zip(&inputs).zip(&probes) {
            ops += side.records_ok + side.flushes;
            records += side.records_ok;
            user_bytes += input.corpus.data_bytes();
            count(
                &mut out.classes,
                "record",
                side.records_ok + side.records_failed,
                side.records_failed,
            );
            count(
                &mut out.classes,
                "flush",
                side.flushes + side.flushes_failed,
                side.flushes_failed,
            );
            count(&mut out.classes, "oversize_record", 1, u64::from(!recorded));
            count(
                &mut out.classes,
                "oversize_flush",
                1,
                u64::from(*flush_failed),
            );
            if *flush_failed {
                out.mismatch("flush after the oversize record failed");
            }
            for e in &side.errors {
                out.mismatch(e.clone());
            }
            pool.record_ms.extend(&side.record_ms);
            pool.flush_ms.extend(&side.flush_ms);
            pool.codec.absorb(&side.codec);
            pool.frame_bytes += side.frame_bytes;
            if traced {
                pool.wire_record_us
                    .extend(side.record_ms.iter().map(|m| m * 1e3));
            }
        }
        pool.write_wall[usize::from(traced)].push(wall);
        pool.throughput.push(per(ops as f64, wall));
        let delta = after.clone() - before.clone();
        pool.billed.push(per(delta.total_ops() as f64, ops as f64));
        pool.usd
            .push(per(layers::usd(&before, &after) * 1000.0, ops as f64));
        out.set(
            "storage_overhead",
            layers::storage_overhead(&after, user_bytes),
        );

        // Verification over the wire.
        let expected = &*expected;
        let verified = net::each_client(&mut clients, &inputs, |client, input| {
            verify_side(client, input, expected)
        });
        for side in &verified {
            let reads = side.read_ms.len() as u64 + side.failed[0];
            let q1s = side.q1_ms.len() as u64 + side.failed[1];
            let q3s = side.q3_ms.len() as u64 + side.failed[2];
            count(&mut out.classes, "read", reads, side.failed[0]);
            count(&mut out.classes, "q1", q1s, side.failed[1]);
            count(&mut out.classes, "q3", q3s, side.failed[2]);
            pool.read_ms.extend(&side.read_ms);
            pool.q1_ms.extend(&side.q1_ms);
            pool.q3_ms.extend(&side.q3_ms);
            for e in &side.errors {
                out.mismatch(e.clone());
            }
        }
        let want = *fingerprints
            .entry(oversize_ok.clone())
            .or_insert_with(|| in_process_fingerprint(&inputs, &oversize_ok));
        match net::guarded(|| clients[0].stats()) {
            Ok(stats) => {
                count(&mut out.classes, "stats", 1, 0);
                if let Err(e) = oracle::fingerprints_match(stats.fingerprint, want) {
                    out.mismatch(e);
                }
            }
            Err(e) => {
                count(&mut out.classes, "stats", 1, 1);
                out.mismatch(format!("stats: {e}"));
            }
        }

        if traced {
            layers::set_meter_counts(&mut out, &[delta], ops as f64);
            out.set(
                "closure.values_per_op",
                per(layers::closure_values(&db) as f64, records as f64),
            );
            out.set("simworld.virtual_ms_per_op", 0.0);
            let files: Vec<(String, Blob)> = inputs
                .iter()
                .flat_map(|i| i.corpus.flushes.iter())
                .filter(|f| f.kind == ObjectKind::File)
                .map(|f| (f.object.name.clone(), f.data.clone()))
                .collect();
            let items: Vec<String> = expected.records.keys().map(ObjectRef::item_name).collect();
            layers::probe(&mut out, &s3, &db, &files, &items);
            pool.legs.absorb(&layer_legs(&inputs));
        }
        drop(clients);
        server.shutdown();
        if round == 0 {
            pool = Pool::default();
            started = Instant::now();
        }
        round += 1;
    }
    out.rounds = round;

    out.set("setup_s", median(&pool.setup_s));
    out.set("throughput_ops_s", median(&pool.throughput));
    let op_ms: Vec<f64> = pool
        .record_ms
        .iter()
        .chain(&pool.flush_ms)
        .copied()
        .collect();
    out.set("op_p50_ms", median(&op_ms));
    out.set("op_p99_ms", quantile(&op_ms, 0.99));
    out.set("record_p50_ms", median(&pool.record_ms));
    out.set("record_p99_ms", quantile(&pool.record_ms, 0.99));
    out.set("flush_p50_ms", median(&pool.flush_ms));
    out.set("read_p50_ms", median(&pool.read_ms));
    out.set("read_p99_ms", quantile(&pool.read_ms, 0.99));
    out.set("query_p50_ms", median(&pool.q1_ms));
    out.set("lineage_p50_ms", median(&pool.q3_ms));
    out.set("billed_requests_per_op", median(&pool.billed));
    out.set("usd_per_1k_ops", median(&pool.usd));
    if args.trace {
        let wire = layers::Wire {
            codec: &pool.codec,
            frame_bytes: pool.frame_bytes,
            class: "record",
            round_trip_us: mean(&pool.wire_record_us),
            observe_ms: &pool.observe_ms,
            walls: &pool.write_wall,
        };
        layers::set_layer_times(&mut out, &pool.legs, &wire);
    }
    let records: usize = 2 * CHAINS * STEPS + CHAINS;
    out.facts.insert("clients", CLIENTS as f64);
    out.facts.insert("chains_per_client", CHAINS as f64);
    out.facts.insert("steps_per_chain", STEPS as f64);
    out.facts
        .insert("records_per_client_per_round", (records + 1) as f64);
    out.facts.insert("flush_every", FLUSH_EVERY as f64);
    out
}

/// The traced legs below the wire, on fresh stores with the same
/// flushes: the legs every networked workload shares, plus
/// `ServeHandle::record` with both clients' flushes from two threads.
fn layer_legs(inputs: &[ClientInput]) -> Ledger {
    let files = inputs
        .iter()
        .flat_map(|i| i.corpus.flushes.iter())
        .filter(|f| f.kind == ObjectKind::File);
    let reads = files.clone().map(|f| Probe::Read(f.object.name.clone()));
    let q1s = files.map(|f| {
        Probe::Q1(ProvQuery::ProvenanceOf {
            name: f.object.name.clone(),
            version: f.object.version,
        })
    });
    let q3s = inputs.iter().flat_map(|i| &i.corpus.chains).map(|c| {
        Probe::Q3(ProvQuery::DescendantsOf {
            program: c.program.clone(),
        })
    });
    let probes: Vec<Probe> = reads.chain(q1s).chain(q3s).collect();
    let batches: Vec<&[FileFlush]> = inputs.iter().map(|i| i.corpus.flushes.as_slice()).collect();
    let mut ledger = layers::below_wire("ingest", &batches, FLUSH_EVERY, &probes);

    let two = ServeHandle::new(oracle::arch3_serving(&SimWorld::counting(), "ingest"));
    let sides: Vec<Ledger> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|input| {
                let two = two.clone();
                s.spawn(move || {
                    let mut ledger = Ledger::default();
                    for (i, flush) in input.corpus.flushes.iter().enumerate() {
                        ledger.time("two.record", || two.record(flush).expect("handle record"));
                        if (i + 1) % FLUSH_EVERY == 0 {
                            two.flush().expect("handle flush");
                        }
                    }
                    two.flush().expect("handle flush");
                    ledger
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("two-writer thread"))
            .collect()
    });
    for side in &sides {
        ledger.absorb(side);
    }
    ledger
}
