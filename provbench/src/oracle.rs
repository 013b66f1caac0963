//! Correctness checks, and a self-test proving each check rejects a
//! deliberately wrong answer (so none can pass vacuously).

use std::collections::BTreeSet;

use pass::ObjectRef;
use provenance_cloud::{
    Arch3Config, ClosureMode, PropertyMatrix, ProvQuery, QueryAnswer, ReadOutcome, S3SimpleDbSqs,
    ServeHandle,
};
use simworld::{Blob, SimWorld};

use crate::corpus::{Corpus, Expected};
use crate::stats::content_hash;

/// A failed check, described.
pub type Check = Result<(), String>;

/// A verified read returned the generator's bytes, consistently paired.
pub fn read_matches(name: &str, got: &ReadOutcome, expected: &Expected) -> Check {
    let Some(&(version, len, hash)) = expected.files.get(name) else {
        return Err(format!("read {name}: not a generated file"));
    };
    if !got.consistent() {
        return Err(format!("read {name}: status {}", got.status));
    }
    if got.object != ObjectRef::new(name, version) {
        return Err(format!(
            "read {name}: version {} instead of {version}",
            got.object.render()
        ));
    }
    let bytes = got.data.to_bytes();
    if bytes.len() as u64 != len || content_hash(&bytes) != hash {
        return Err(format!("read {name}: bytes differ from the generated blob"));
    }
    Ok(())
}

/// Q1 for one object version answered exactly its generated records.
pub fn q1_matches(object: &ObjectRef, got: &QueryAnswer, expected: &Expected) -> Check {
    let Some(want) = expected.records.get(object) else {
        return Err(format!("q1 {}: not a generated object", object.render()));
    };
    let [item] = got.items.as_slice() else {
        return Err(format!("q1 {}: {} items", object.render(), got.len()));
    };
    let mut records = item.records.clone();
    records.sort();
    if &item.object != object || &records != want {
        return Err(format!("q1 {}: records differ", object.render()));
    }
    Ok(())
}

/// A set-valued answer (Q2, Q3) names exactly `want`, each once, and
/// every item carries its generated records.
pub fn set_matches(
    what: &str,
    got: &QueryAnswer,
    want: &BTreeSet<ObjectRef>,
    expected: &Expected,
) -> Check {
    let objects: BTreeSet<ObjectRef> = got.items.iter().map(|i| i.object.clone()).collect();
    if objects.len() != got.len() || &objects != want {
        return Err(format!(
            "{what}: {} items, expected {}",
            got.len(),
            want.len()
        ));
    }
    for item in &got.items {
        let mut records = item.records.clone();
        records.sort();
        if expected.records.get(&item.object) != Some(&records) {
            return Err(format!(
                "{what}: records of {} differ",
                item.object.render()
            ));
        }
    }
    Ok(())
}

/// An answer as `(object, sorted records)` pairs: engines decode a
/// version's records in different orders (S3 metadata vs SimpleDB
/// attributes), and the order carries no meaning.
fn normalized(answer: &QueryAnswer) -> Vec<(ObjectRef, Vec<pass::ProvenanceRecord>)> {
    answer
        .items
        .iter()
        .map(|item| {
            let mut records = item.records.clone();
            records.sort();
            (item.object.clone(), records)
        })
        .collect()
}

/// Two engines answered item for item the same.
pub fn engines_agree(what: &str, a: &QueryAnswer, b: &QueryAnswer) -> Check {
    if normalized(a) != normalized(b) {
        return Err(format!(
            "{what}: engines disagree ({} vs {} items)",
            a.len(),
            b.len()
        ));
    }
    Ok(())
}

/// The networked store converged to the in-process store's state.
pub fn fingerprints_match(networked: u64, in_process: u64) -> Check {
    if networked != in_process {
        return Err(format!(
            "fingerprint {networked:016x} != in-process {in_process:016x}"
        ));
    }
    Ok(())
}

/// The paper's Table 1: (atomicity, consistency, causal ordering,
/// efficient query) per architecture, in paper order.
pub const PAPER_TABLE1: [(&str, [bool; 4]); 3] = [
    ("S3", [true, true, true, false]),
    ("S3+SimpleDB", [false, true, true, true]),
    ("S3+SimpleDB+SQS", [true, true, true, true]),
];

/// The measured property matrix equals the paper's.
pub fn table1_matches(rows: &[PropertyMatrix]) -> Check {
    let got: Vec<(&str, [bool; 4])> = rows
        .iter()
        .map(|r| {
            (
                r.architecture.as_str(),
                [
                    r.atomicity,
                    r.consistency,
                    r.causal_ordering,
                    r.efficient_query,
                ],
            )
        })
        .collect();
    if got != PAPER_TABLE1 {
        return Err(format!("table 1 differs from the paper: {got:?}"));
    }
    Ok(())
}

/// An arch3 store with the closure index served, on a counting world:
/// the store every networked workload runs.
pub fn arch3_serving(world: &SimWorld, client: &str) -> S3SimpleDbSqs {
    let mut store = S3SimpleDbSqs::new(world, client);
    store.set_config(Arch3Config {
        closure: ClosureMode::Serve,
        ..Arch3Config::default()
    });
    store
}

fn expect_reject(name: &str, good: Check, bad: Check) -> Check {
    good.map_err(|e| format!("self-test {name}: the right answer was rejected: {e}"))?;
    match bad {
        Err(_) => Ok(()),
        Ok(()) => Err(format!("self-test {name}: a wrong answer passed")),
    }
}

/// Runs every check on a small store twice: once on the right answer
/// (must pass), once on a deliberately broken one (must fail).
pub fn self_test() -> Check {
    let corpus = Corpus::chains("selftest", 2, 3, 1, 9_000_000);
    let expected = Expected::of(&corpus.flushes);
    let handle = ServeHandle::new(arch3_serving(&SimWorld::counting(), "selftest"));
    let twin = ServeHandle::new(arch3_serving(&SimWorld::counting(), "selftest"));
    for flush in &corpus.flushes {
        handle.record(flush).map_err(|e| e.to_string())?;
        twin.record(flush).map_err(|e| e.to_string())?;
    }
    handle.flush().map_err(|e| e.to_string())?;
    twin.flush().map_err(|e| e.to_string())?;
    let err = |e: provenance_cloud::CloudError| e.to_string();

    // A dropped Q3 descendant.
    let chain = &corpus.chains[0];
    let want = expected.descendants_of(&chain.program);
    let q3 = handle
        .query(&ProvQuery::DescendantsOf {
            program: chain.program.clone(),
        })
        .map_err(err)?;
    let mut dropped = q3.clone();
    dropped.items.pop();
    expect_reject(
        "q3",
        set_matches("q3", &q3, &want, &expected),
        set_matches("q3", &dropped, &want, &expected),
    )?;

    // A flipped data byte.
    let name = chain.files[1].as_str();
    let read = handle.read(name).map_err(err)?;
    let mut flipped = read.clone();
    let mut bytes = read.data.to_bytes().to_vec();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x01;
    flipped.data = Blob::from(bytes);
    expect_reject(
        "read",
        read_matches(name, &read, &expected),
        read_matches(name, &flipped, &expected),
    )?;

    // A missing Q1 record.
    let object = ObjectRef::new(name, 1);
    let q1 = handle
        .query(&ProvQuery::ProvenanceOf {
            name: name.to_string(),
            version: 1,
        })
        .map_err(err)?;
    let mut missing = q1.clone();
    missing.items[0].records.pop();
    expect_reject(
        "q1",
        q1_matches(&object, &q1, &expected),
        q1_matches(&object, &missing, &expected),
    )?;

    // A fingerprint mismatch.
    let fp = handle.fingerprint();
    expect_reject(
        "fingerprint",
        fingerprints_match(fp, twin.fingerprint()),
        fingerprints_match(fp, fp ^ 1),
    )?;

    // Engines that disagree, and a Table 1 that is not the paper's.
    expect_reject(
        "engines",
        engines_agree("q3", &q3, &q3.clone()),
        engines_agree("q3", &q3, &dropped),
    )?;
    let rows: Vec<PropertyMatrix> = PAPER_TABLE1
        .iter()
        .map(|(arch, [a, c, o, q])| PropertyMatrix {
            architecture: (*arch).to_string(),
            atomicity: *a,
            consistency: *c,
            causal_ordering: *o,
            efficient_query: *q,
        })
        .collect();
    let mut wrong = rows.clone();
    wrong[1].atomicity = true;
    expect_reject("table1", table1_matches(&rows), table1_matches(&wrong))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_check_rejects_a_wrong_answer() {
        super::self_test().unwrap();
    }
}
