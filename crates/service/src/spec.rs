//! What a `POST /campaigns` body may say: a [`CampaignSpec`], checked
//! against the daemon before it is admitted.

use dx_dist::Fingerprint;

pub use dx_dist::spec::CampaignSpec;

/// Validates a parsed spec against the daemon's fleet: name shape, knob
/// ranges, the seed slice against the pool, and the optional
/// metric/constraint assertions against the admission fingerprint.
///
/// # Errors
///
/// A human-readable reason (the HTTP layer's `400`).
pub fn validate(spec: &CampaignSpec, fp: &Fingerprint, pool_rows: usize) -> Result<(), String> {
    if spec.name.is_empty() || spec.name.len() > 64 {
        return Err("`name` must be 1..=64 bytes".into());
    }
    if !spec.name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_') {
        return Err("`name` may only contain [A-Za-z0-9_-]".into());
    }
    if spec.seeds == 0 {
        return Err("`seeds` must be at least 1".into());
    }
    if spec.seed_offset.saturating_add(spec.seeds) > pool_rows {
        return Err(format!(
            "seed slice {}..{} exceeds the daemon's pool of {pool_rows} rows",
            spec.seed_offset,
            spec.seed_offset + spec.seeds
        ));
    }
    if !(spec.quota > 0.0 && spec.quota <= 1.0) {
        return Err("`quota` must be in (0, 1]".into());
    }
    if !(spec.weight > 0.0 && spec.weight.is_finite()) {
        return Err("`weight` must be a positive finite number".into());
    }
    if let Some(t) = spec.target_coverage {
        if !(t > 0.0 && t <= 1.0) {
            return Err("`target_coverage` must be in (0, 1]".into());
        }
    }
    if let Some(m) = &spec.metric {
        if m != &fp.metric {
            return Err(format!("requested metric `{m}` but the fleet runs `{}`", fp.metric));
        }
    }
    if let Some(c) = &spec.constraint {
        if c != &fp.constraint {
            return Err(format!(
                "requested constraint `{c}` but the fleet runs `{}`",
                fp.constraint
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint {
            label: "t@test".into(),
            metric: "neuron".into(),
            units: vec![10, 10],
            profiles: "none".into(),
            hyper: "h".into(),
            constraint: "lighting".into(),
        }
    }

    #[test]
    fn parses_full_and_minimal_bodies() {
        let doc = dx_campaign::json::parse_doc(
            r#"{"name":"acme","seed":7,"seeds":4,"seed_offset":2,"max_steps":100,
                "target_coverage":0.5,"quota":0.25,"weight":2.0,"metric":"neuron"}"#,
        )
        .unwrap();
        let spec = CampaignSpec::from_json(&doc).unwrap();
        assert_eq!(spec.name, "acme");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.seeds, 4);
        assert_eq!(spec.seed_offset, 2);
        assert_eq!(spec.max_steps, Some(100));
        assert_eq!(spec.quota, 0.25);
        assert_eq!(spec.weight, 2.0);
        validate(&spec, &fp(), 8).unwrap();

        let minimal = dx_campaign::json::parse_doc(r#"{"name":"n"}"#).unwrap();
        let spec = CampaignSpec::from_json(&minimal).unwrap();
        assert_eq!(spec, CampaignSpec::named("n"));
        validate(&spec, &fp(), 8).unwrap();
    }

    #[test]
    fn validation_bounds_every_knob() {
        #[allow(clippy::type_complexity)]
        let cases: Vec<(Box<dyn Fn(&mut CampaignSpec)>, &str)> = vec![
            (Box::new(|s| s.name = String::new()), "name"),
            (Box::new(|s| s.name = "bad name!".into()), "name"),
            (Box::new(|s| s.seeds = 0), "seeds"),
            (Box::new(|s| s.seed_offset = 7), "pool"),
            (Box::new(|s| s.quota = 0.0), "quota"),
            (Box::new(|s| s.quota = 1.5), "quota"),
            (Box::new(|s| s.weight = 0.0), "weight"),
            (Box::new(|s| s.weight = f32::NAN), "weight"),
            (Box::new(|s| s.target_coverage = Some(0.0)), "target_coverage"),
            (Box::new(|s| s.metric = Some("multisection".into())), "metric"),
            (Box::new(|s| s.constraint = Some("clip".into())), "constraint"),
        ];
        for (mutate, why) in cases {
            let mut spec = CampaignSpec::named("ok");
            spec.seeds = 4;
            mutate(&mut spec);
            let err = validate(&spec, &fp(), 8).unwrap_err();
            assert!(err.to_lowercase().contains(why), "{why}: {err}");
        }
    }
}
