//! Helpers every workload shares: the bill, the per-layer counts read
//! off `MeterSnapshot` deltas, the timed probes of the service and
//! substrate layers, and the traced legs below the wire with the
//! self-time rules the networked workloads derive their layer times by.

use std::time::Instant;

use costmodel::{cost_of, PriceBook};
use pass::FileFlush;
use provenance_cloud::layout::{data_key, BUCKET, CLOSURE_DOMAIN, DOMAIN};
use provenance_cloud::{ProvQuery, ProvenanceStore, ServeHandle};
use sim_s3::S3;
use sim_simpledb::SimpleDb;
use simworld::{Blob, Md5, MeterSnapshot, Op, Service, SimWorld};

use crate::oracle;
use crate::report::Outcome;
use crate::stats::{mean, ms, per, us, Ledger};

const MIB: f64 = 1024.0 * 1024.0;
const GB: f64 = 1024.0 * 1024.0 * 1024.0;

/// USD for the operations between two snapshots: request and transfer
/// charges at January 2009 prices, plus one month of rent on the bytes
/// the operations added to storage (rent on what was already stored is
/// not theirs).
pub fn usd(before: &MeterSnapshot, after: &MeterSnapshot) -> f64 {
    let book = PriceBook::january_2009();
    let delta = after.clone() - before.clone();
    let mut total = cost_of(&delta, 0.0, &book).total();
    for (service, rate) in [
        (Service::S3, book.s3_storage_per_gb_month),
        (Service::SimpleDb, book.sdb_storage_per_gb_month),
        (Service::Sqs, book.s3_storage_per_gb_month),
    ] {
        let grown = after
            .stored_bytes(service)
            .saturating_sub(before.stored_bytes(service));
        total += grown as f64 / GB * rate;
    }
    total
}

/// Bytes stored beyond `user_bytes` of user data, as a share of it.
pub fn storage_overhead(meters: &MeterSnapshot, user_bytes: u64) -> f64 {
    let stored = meters.total_stored_bytes() as f64;
    per(stored - user_bytes as f64, user_bytes as f64)
}

/// Sets the billed-request and bill metrics for `ops` operations.
pub fn set_bill(out: &mut Outcome, before: &MeterSnapshot, after: &MeterSnapshot, ops: f64) {
    let delta = after.clone() - before.clone();
    out.set("billed_requests_per_op", per(delta.total_ops() as f64, ops));
    out.set("usd_per_1k_ops", per(usd(before, after) * 1000.0, ops));
}

/// The per-layer counts the meter deltas of one or more stores give,
/// over `ops` operations. Shard imbalance is the last store's.
pub fn set_meter_counts(out: &mut Outcome, deltas: &[MeterSnapshot], ops: f64) {
    let sum = |f: &dyn Fn(&MeterSnapshot) -> u64| deltas.iter().map(f).sum::<u64>() as f64;
    let entries = |point: Op, batch: Op| {
        sum(&|d: &MeterSnapshot| d.op_count(point) + d.batch_entry_count(batch))
    };
    fn s3(d: &MeterSnapshot) -> &simworld::ServiceMeter {
        d.service(Service::S3)
    }
    out.set(
        "sim_s3.requests_per_op",
        per(sum(&|d| s3(d).total_ops()), ops),
    );
    out.set("sim_s3.bytes_in_per_op", per(sum(&|d| s3(d).bytes_in), ops));
    out.set(
        "sim_s3.bytes_out_per_op",
        per(sum(&|d| s3(d).bytes_out), ops),
    );
    out.set(
        "sim_simpledb.requests_per_op",
        per(sum(&|d| d.service_ops(Service::SimpleDb)), ops),
    );
    out.set(
        "sim_simpledb.batch_entries_per_op",
        per(
            sum(&|d| d.service(Service::SimpleDb).batch_entries.values().sum()),
            ops,
        ),
    );
    out.set(
        "sim_simpledb.shard_imbalance",
        deltas.last().map_or(0.0, |d| {
            d.shard_imbalance(Service::SimpleDb, sim_simpledb::DEFAULT_SHARDS)
                .imbalance()
        }),
    );
    out.set(
        "sim_sqs.requests_per_op",
        per(sum(&|d| d.service_ops(Service::Sqs)), ops),
    );
    out.set(
        "sim_sqs.bytes_in_per_op",
        per(sum(&|d| d.service(Service::Sqs).bytes_in), ops),
    );
    out.set(
        "wal.entries_per_op",
        per(entries(Op::SqsSendMessage, Op::SqsSendMessageBatch), ops),
    );
    // Every WAL message is deleted once applied, so deletions count the
    // messages the daemon's receives delivered.
    out.set(
        "arch3.receive_yield",
        per(
            entries(Op::SqsDeleteMessage, Op::SqsDeleteMessageBatch),
            sum(&|d| d.op_count(Op::SqsReceiveMessage)),
        ),
    );
    out.set(
        "simworld.md5_mib_per_op",
        per(sum(&|d| s3(d).bytes_in + s3(d).bytes_out) / MIB, ops),
    );
}

/// Attribute values in the closure domain (the index rows maintenance
/// wrote), read through the unbilled latest-state view.
pub fn closure_values(db: &SimpleDb) -> u64 {
    db.latest_item_names(CLOSURE_DOMAIN)
        .iter()
        .filter_map(|name| db.latest_item(CLOSURE_DOMAIN, name))
        .map(|attrs| attrs.len() as u64)
        .sum()
}

/// Times the service and substrate layers directly on the workload's
/// own objects: S3 GETs of `files`, SimpleDB GetAttributes of `items`,
/// one SimpleDB scan, and MD5 and blob synthesis over the files' bytes.
pub fn probe(
    out: &mut Outcome,
    s3: &S3,
    db: &SimpleDb,
    files: &[(String, Blob)],
    items: &[String],
) {
    let mut gets = Vec::new();
    let mut hashed = 0.0;
    let mut md5_time = 0.0;
    let mut blob_time = 0.0;
    for (name, blob) in files {
        let start = Instant::now();
        let object = s3.get_object(BUCKET, &data_key(name));
        gets.push(us(start.elapsed()));
        if let Ok(object) = object {
            std::hint::black_box(object);
        }
        let start = Instant::now();
        let bytes = std::hint::black_box(blob.to_bytes());
        blob_time += us(start.elapsed());
        let start = Instant::now();
        std::hint::black_box(Md5::digest(&bytes));
        md5_time += us(start.elapsed());
        hashed += bytes.len() as f64 / MIB;
    }
    out.set("sim_s3.get_us", mean(&gets));
    out.set("simworld.md5_us_per_mib", per(md5_time, hashed));
    out.set("simworld.blob_us_per_mib", per(blob_time, hashed));
    let mut attrs = Vec::new();
    for item in items {
        let start = Instant::now();
        std::hint::black_box(db.get_attributes(DOMAIN, item, None).ok());
        attrs.push(us(start.elapsed()));
    }
    out.set("sim_simpledb.get_us", mean(&attrs));
    let start = Instant::now();
    let mut token: Option<String> = None;
    loop {
        let page = db.query(DOMAIN, Some("['type' = 'file']"), None, token.as_deref());
        match page {
            Ok(page) if page.next_token.is_some() => token = page.next_token,
            _ => break,
        }
    }
    out.set("sim_simpledb.query_ms", ms(start.elapsed()));
}

/// A read or query the traced legs run below the wire.
#[derive(Clone, Debug)]
pub enum Probe {
    /// A verified read of one file.
    Read(String),
    /// Q1 of one object.
    Q1(ProvQuery),
    /// Q3 of one program.
    Q3(ProvQuery),
}

/// The traced legs below the wire, on fresh arch3 stores with the
/// closure index served: each batch of `batches` is persisted into a
/// bare store and recorded through a one-writer `ServeHandle`, advanced
/// in lockstep so both see the same store sizes and warm caches, with a
/// drain (bare) and a `flush` (handle) after every `flush_every` records
/// and at the end of each batch. Then each probe runs on the bare store
/// and on the handle in turn.
///
/// Ledger names: `bare.persist`, `bare.drain`, `one.record`;
/// `bare.read`, `one.read`; `bare.query` (and `bare.q1` or `bare.q3`),
/// `one.query`.
pub fn below_wire(
    tag: &str,
    batches: &[&[FileFlush]],
    flush_every: usize,
    probes: &[Probe],
) -> Ledger {
    let mut ledger = Ledger::default();
    let mut bare = oracle::arch3_serving(&SimWorld::counting(), tag);
    let one = ServeHandle::new(oracle::arch3_serving(&SimWorld::counting(), tag));
    for batch in batches {
        for (i, flush) in batch.iter().enumerate() {
            ledger.time("bare.persist", || {
                bare.persist(flush).expect("bare persist")
            });
            ledger.time("one.record", || one.record(flush).expect("handle record"));
            if (i + 1) % flush_every == 0 || i + 1 == batch.len() {
                ledger.time("bare.drain", || {
                    bare.run_daemons_until_idle().expect("drain")
                });
                one.flush().expect("handle flush");
            }
        }
    }
    for probe in probes {
        match probe {
            Probe::Read(name) => {
                ledger.time("bare.read", || bare.read(name).expect("bare read"));
                ledger.time("one.read", || one.read(name).expect("handle read"));
            }
            Probe::Q1(query) | Probe::Q3(query) => {
                let start = Instant::now();
                std::hint::black_box(bare.query(query).expect("bare query"));
                let took = start.elapsed();
                ledger.add("bare.query", took);
                let leg = if matches!(probe, Probe::Q3(_)) {
                    "bare.q3"
                } else {
                    "bare.q1"
                };
                ledger.add(leg, took);
                ledger.time("one.query", || one.query(query).expect("handle query"));
            }
        }
    }
    ledger
}

/// What the traced rounds of a networked workload measured on the
/// wire and around it.
pub struct Wire<'a> {
    /// Codec time (encode and decode of command and reply) per class.
    pub codec: &'a Ledger,
    /// Bytes of both frames over every codec call.
    pub frame_bytes: u64,
    /// The class the transport estimate uses, as named in `codec` and,
    /// after `one.`, in the legs: `record` or `read`.
    pub class: &'static str,
    /// Mean wire round trip of that class, in µs.
    pub round_trip_us: f64,
    /// Milliseconds each input generation took.
    pub observe_ms: &'a [f64],
    /// Wall time of the plain rounds, then of the traced rounds.
    pub walls: &'a [Vec<f64>; 2],
}

/// Sets every per-layer time the networked workloads share from the
/// legs of [`below_wire`] (plus `two.record` when two writers ran) and
/// the wire's own timings. A layer's time is its self time: the time at
/// its entry minus the time at the next lower entry on the same
/// operations.
pub fn set_layer_times(out: &mut Outcome, legs: &Ledger, wire: &Wire) {
    let (codec, calls) = wire.codec.overall();
    out.set("frontend.codec_us_per_op", per(us(codec), calls as f64));
    out.set(
        "frontend.frame_bytes_per_op",
        per(wire.frame_bytes as f64, calls as f64),
    );
    let handle = legs.mean_us(&format!("one.{}", wire.class));
    out.set(
        "frontend.transport_us_per_op",
        wire.round_trip_us - wire.codec.mean_us(wire.class) - handle,
    );
    let persist = legs.mean_us("bare.persist");
    let record = legs.mean_us("one.record");
    out.set("serve.record_us", record - persist);
    // With one writer nothing waits on the writer mutex beyond the
    // handle's own cost.
    let shared = if legs.calls("two.record") > 0 {
        legs.mean_us("two.record")
    } else {
        record
    };
    out.set("serve.writer_wait_us", shared - persist);
    out.set(
        "serve.read_us",
        legs.mean_us("one.read") - legs.mean_us("bare.read"),
    );
    out.set(
        "serve.query_us",
        legs.mean_us("one.query") - legs.mean_us("bare.query"),
    );
    out.set("arch.persist_us", persist);
    out.set("arch.flush_ms", legs.mean_us("bare.drain") / 1e3);
    out.set("closure.q3_us", legs.mean_us("bare.q3"));
    out.set("readpath.read_us", legs.mean_us("bare.read"));
    out.set("query.simpledb.q1_ms", legs.mean_us("bare.q1") / 1e3);
    out.set("query.simpledb.q3_ms", legs.mean_us("bare.q3") / 1e3);
    out.set("pass.observe_ms", mean(wire.observe_ms));
    let [plain, traced] = wire.walls;
    out.set("trace.overhead", per(mean(traced), mean(plain)) - 1.0);
}
