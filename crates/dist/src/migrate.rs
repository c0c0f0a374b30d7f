//! What older builds wrote into a daemon's directories, read in one
//! place: [`open`] upgrades it in memory and decodes it with the live
//! decoders, which read `dist.json` v4 ([`Record`]) and `fleet.json` v2
//! ([`FleetRecord`]) only; the campaign files beside them go through
//! [`dx_campaign::migrate`]. It writes nothing, so a forked resume
//! (`--resume A --checkpoint B`) leaves `A` untouched. Read here, each
//! with a `tests/fixtures/state/` directory that tier-1 resumes: a
//! coordinator's `dist.json` v1–v3 and `fleet.json` v1, whose fleet
//! fields and worker streams are keyed by slot, and a service's
//! `tenant.json` v1. Slot `s` loads at position `s`, an unbound one as a
//! placeholder that keeps its trust; a stream goes to the identity bound
//! to its slot (v1/v2 bind none, so theirs restart).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use dx_campaign::codec::u64_json;
use dx_campaign::json::{build, invalid, read_doc, Json};

use crate::coordinator::{trust, FleetRecord};
use crate::engine::{Trust, Worker};
use crate::spec::CampaignSpec;
use crate::tenant::Record;

/// Slots an older checkpoint may name: positions are dense, so a slot
/// beyond this is a corrupt file, not a fleet.
const MAX_SLOT: u64 = 1 << 16;

/// The daemon state in `dir`, whichever build wrote it: its record
/// (`dist.json`, or an older service's `tenant.json`) and its fleet
/// (`fleet.json`, or else the fleet fields of a `dist.json` before v4).
/// Writes nothing.
///
/// # Errors
///
/// Malformed files, or versions no build wrote.
pub(crate) fn open(dir: &Path) -> io::Result<(Option<Record>, Option<FleetRecord>)> {
    let mut fleet = match read_doc(&dir.join("fleet.json"))? {
        Some(doc) if version(&doc)? == 1 => Some(from_slots(&doc)?),
        doc => doc.map(|doc| FleetRecord::from_doc(&doc)).transpose()?,
    };
    let record = match read_doc(&dir.join("dist.json"))? {
        Some(mut doc) if (1..4).contains(&version(&doc)?) => {
            let slots = from_slots(&doc)?;
            let streams: Vec<Option<Json>> = doc.opt_list_with("worker_rng", |e| {
                let at = usize::try_from(e.field::<u64>("slot")?).ok();
                let who = at.and_then(|s| slots.workers.get(s)).map(|w| w.identity.as_str());
                let state = e.get("state").cloned().unwrap_or(Json::Null);
                Ok(who
                    .filter(|id| !id.is_empty())
                    .map(|id| build::obj(vec![("worker_id", build::str(id)), ("state", state)])))
            })?;
            doc.set("worker_rng", Json::Arr(streams.into_iter().flatten().collect()));
            fleet = fleet.or(Some(slots));
            Some(v4(doc))
        }
        Some(doc) => Some(doc),
        None => read_doc(&dir.join("tenant.json"))?
            .map(|doc| doc.require_version("tenant.json", 1).map(|()| v4(doc)))
            .transpose()?,
    };
    Ok((record.map(|doc| Record::from_doc(&doc)).transpose()?, fleet))
}

/// A document's `version`; the earliest files carried none.
fn version(doc: &Json) -> io::Result<usize> {
    Ok(doc.opt_field("version")?.unwrap_or(1))
}

/// An older record as the `dist.json` v4 it stands for: what it lacks,
/// at the values its build meant (a coordinator's one running campaign
/// 0, nothing owed or quarantined, every kept quarantined diff counted).
fn v4(mut doc: Json) -> Json {
    let kept = doc.get("quarantined").and_then(Json::as_arr).map_or(0, <[Json]>::len);
    let defaults = [
        ("id", u64_json(0)),
        ("status", build::str("running")),
        ("spec", CampaignSpec::named("campaign").to_json()),
        ("pending", Json::Arr(Vec::new())),
        ("worker_rng", Json::Arr(Vec::new())),
        ("quarantined_total", build::int(kept)),
        ("quarantined", Json::Arr(Vec::new())),
    ];
    for (key, value) in defaults {
        if matches!(doc.get(key), None | Some(Json::Null)) {
            doc.set(key, value);
        }
    }
    doc.set("version", build::int(4));
    doc
}

/// The slot-keyed fleet fields of a `fleet.json` v1 or a `dist.json`
/// v1–v3, by position.
fn from_slots(doc: &Json) -> io::Result<FleetRecord> {
    let slot = |e: &Json| match e.field::<u64>("slot")? {
        s if s < MAX_SLOT => Ok(s),
        s => Err(invalid(format!("slot {s} out of range"))),
    };
    let identities: BTreeMap<u64, String> =
        doc.opt_list_with("identities", |e| Ok((slot(e)?, e.field("worker_id")?)))?;
    let trusts: BTreeMap<u64, Trust> = doc.opt_list_with("trust", |e| Ok((slot(e)?, trust(e)?)))?;
    let slots = identities.keys().chain(trusts.keys()).max().map_or(0, |&s| s + 1);
    let workers = (0..slots)
        .map(|s| Worker {
            identity: identities.get(&s).cloned().unwrap_or_default(),
            trust: trusts.get(&s).copied().unwrap_or_default(),
            ..Worker::default()
        })
        .collect();
    Ok(FleetRecord { next_lease: doc.opt_field("next_lease")?.unwrap_or(0), workers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::tests::fixture;
    use crate::tenant::Status;
    use dx_campaign::json::parse_doc;

    /// The document at fixture path `path` without fields `keys`.
    fn without(path: &str, keys: &[&str]) -> String {
        let Json::Obj(mut fields) = parse_doc(&fixture(path)).unwrap() else { panic!("{path}") };
        fields.retain(|(k, _)| !keys.contains(&k.as_str()));
        Json::Obj(fields).to_string()
    }

    #[test]
    fn what_older_builds_left_out_reads_as_what_they_meant() {
        // Older loaders read each of these fields as optional.
        let dir = std::env::temp_dir().join("dx_dist_migrate_defaults");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let open_record = |file: &str, doc: &str| {
            std::fs::write(dir.join(file), doc).unwrap();
            let (record, fleet) = open(&dir).unwrap();
            (record.expect("a record"), fleet)
        };
        // A `dist.json` v3 without a quarantine total counts its kept diffs.
        let gone = ["quarantined_total", "pending", "worker_rng"];
        let (r, fleet) = open_record("dist.json", &without("coordinator-dist3/dist.json", &gone));
        assert_eq!((r.quarantined_total, r.quarantined.len()), (1, 1));
        assert!(r.pending.is_empty() && r.worker_rng.is_empty());
        assert_eq!(fleet.map(|f| f.workers.len()), Some(6));
        // The first `dist.json`, with no version: a coordinator's running
        // campaign 0, nothing owed, an empty fleet.
        let (r, fleet) = open_record("dist.json", "{\"steps_done\":3}");
        assert_eq!((r.id, r.status, r.steps_done, r.quarantined_total), (0, Status::Running, 3, 0));
        assert_eq!(r.spec, CampaignSpec::named("campaign"));
        assert!(r.pending.is_empty() && r.worker_rng.is_empty() && r.quarantined.is_empty());
        let fleet = fleet.expect("the fleet fields");
        assert_eq!((fleet.next_lease, fleet.workers.len()), (0, 0));
        // A service's `tenant.json` v1 without its requeue or streams.
        std::fs::remove_file(dir.join("dist.json")).unwrap();
        let tenant = without("service-tenant1/1/tenant.json", &["pending", "worker_rng"]);
        let (r, fleet) = open_record("tenant.json", &tenant);
        assert_eq!((r.id, r.status, r.spec.seed), (1, Status::Paused, 9));
        assert!(r.pending.is_empty() && r.worker_rng.is_empty() && fleet.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
