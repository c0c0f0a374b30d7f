//! Campaign specifications: what a daemon's campaign is asked to be.
//!
//! A spec is everything a campaign chooses for itself — which rows of
//! the daemon's seed pool to fuzz, the master seed its worker RNG streams
//! derive from, stop conditions, and its share of the fleet (scheduling
//! weight and lease quota). Everything else (the model suite, the
//! coverage metric, the domain constraint) is fixed per daemon, so a
//! spec may only *assert* those via the optional `metric`/`constraint`
//! fields. A service tenant's spec arrives over HTTP (`dx-service`
//! validates it there); a dedicated coordinator builds its one
//! campaign's spec from its config.

use std::io;

use dx_campaign::json::{build, Json};

/// A submitted campaign: seeds, budget, and fleet-share knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Tenant name: the `tenant` label on metrics and the human handle in
    /// reports. Must be unique for the daemon's lifetime (including
    /// checkpointed tenants), `[A-Za-z0-9_-]+`, at most 64 bytes.
    pub name: String,
    /// Campaign master seed; worker generator streams derive from it
    /// exactly as in a dedicated coordinator, so a service tenant and a
    /// dedicated run of the same spec produce the same stream.
    pub seed: u64,
    /// How many rows of the daemon's seed pool this tenant fuzzes.
    pub seeds: usize,
    /// First pool row of this tenant's slice — two tenants may share rows
    /// or partition the pool.
    pub seed_offset: usize,
    /// Total seed-step budget; `None` is unbounded.
    pub max_steps: Option<usize>,
    /// Stop once mean global coverage reaches this level.
    pub target_coverage: Option<f32>,
    /// Ceiling on this tenant's share of in-flight leased jobs, in
    /// `(0, 1]`. Every runnable tenant is always guaranteed one lease.
    pub quota: f32,
    /// Deficit-weighted fair-share weight (> 0): a weight-2 tenant is
    /// granted twice the jobs of a weight-1 tenant under contention.
    pub weight: f32,
    /// Optional assertion of the fleet's coverage metric (e.g. `neuron`).
    pub metric: Option<String>,
    /// Optional assertion of the fleet's constraint digest (e.g.
    /// `lighting`).
    pub constraint: Option<String>,
}

impl CampaignSpec {
    /// A spec with defaults for everything but the name.
    pub fn named(name: &str) -> Self {
        Self {
            name: name.to_string(),
            seed: 42,
            seeds: 8,
            seed_offset: 0,
            max_steps: None,
            target_coverage: None,
            quota: 1.0,
            weight: 1.0,
            metric: None,
            constraint: None,
        }
    }

    /// Parses a submission body. Unknown fields are ignored, and an absent
    /// or `null` field takes its default; wrong types and a missing name
    /// are errors (the HTTP layer's `400`).
    ///
    /// # Errors
    ///
    /// `InvalidData` naming the field, its message returned verbatim in
    /// the response body.
    pub fn from_json(doc: &Json) -> io::Result<Self> {
        let defaults = Self::named(&doc.field::<String>("name")?);
        Ok(Self {
            // A plain number or the decimal string `to_json` writes (full
            // u64 seeds don't fit in an f64).
            seed: doc.opt_field("seed")?.unwrap_or(defaults.seed),
            seeds: doc.opt_field("seeds")?.unwrap_or(defaults.seeds),
            seed_offset: doc.opt_field("seed_offset")?.unwrap_or(defaults.seed_offset),
            max_steps: doc.opt_field("max_steps")?,
            target_coverage: doc.opt_field("target_coverage")?,
            quota: doc.opt_field("quota")?.unwrap_or(defaults.quota),
            weight: doc.opt_field("weight")?.unwrap_or(defaults.weight),
            metric: doc.opt_field("metric")?,
            constraint: doc.opt_field("constraint")?,
            ..defaults
        })
    }

    /// The spec as JSON — submission echo and `dist.json` persistence.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", build::str(&self.name)),
            ("seed", dx_campaign::codec::u64_json(self.seed)),
            ("seeds", build::int(self.seeds)),
            ("seed_offset", build::int(self.seed_offset)),
            ("quota", build::num(f64::from(self.quota))),
            ("weight", build::num(f64::from(self.weight))),
        ];
        if let Some(m) = self.max_steps {
            fields.push(("max_steps", build::int(m)));
        }
        if let Some(t) = self.target_coverage {
            fields.push(("target_coverage", build::num(f64::from(t))));
        }
        if let Some(m) = &self.metric {
            fields.push(("metric", build::str(m)));
        }
        if let Some(c) = &self.constraint {
            fields.push(("constraint", build::str(c)));
        }
        build::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_malformed_bodies() {
        for (body, why) in [
            (r#"[1,2]"#, "object"),
            (r#"{"seeds":4}"#, "`name`"),
            (r#"{"name":7}"#, "`name`"),
            (r#"{"name":"n","seeds":"four"}"#, "`seeds`"),
            (r#"{"name":"n","quota":"all"}"#, "`quota`"),
        ] {
            let doc = dx_campaign::json::parse_doc(body).unwrap();
            let err = CampaignSpec::from_json(&doc).unwrap_err().to_string();
            assert!(err.contains(why), "{body}: {err}");
        }
    }

    #[test]
    fn spec_decoder_survives_mutation() {
        let mut full = CampaignSpec::named("acme");
        full.max_steps = Some(50);
        full.target_coverage = Some(0.75);
        full.metric = Some("neuron".into());
        full.constraint = Some("lighting".into());
        let seeds = [full.to_json().to_string(), CampaignSpec::named("n").to_json().to_string()];
        dx_integration::fuzz::check_decoder(&seeds, 2048, |text| {
            let doc = dx_campaign::json::parse_doc(text)?;
            Ok(CampaignSpec::from_json(&doc)?.to_json().to_string())
        });
    }

    #[test]
    fn spec_round_trips_through_json() {
        // Every field differs from `named`'s default, so a key `from_json`
        // drops or defaults changes the second echo.
        let mut spec = CampaignSpec::named("acme");
        spec.seed = u64::MAX - 1;
        spec.seeds = 3;
        spec.seed_offset = 2;
        spec.max_steps = Some(50);
        spec.target_coverage = Some(0.75);
        spec.quota = 0.5;
        spec.weight = 3.0;
        spec.metric = Some("neuron".into());
        spec.constraint = Some("lighting".into());
        let first = spec.to_json().to_string();
        let loaded =
            CampaignSpec::from_json(&dx_campaign::json::parse_doc(&first).unwrap()).unwrap();
        assert_eq!(loaded, spec);
        assert_eq!(loaded.to_json().to_string(), first);
    }
}
