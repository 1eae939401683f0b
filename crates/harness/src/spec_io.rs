//! JSON (de)serialization of campaign specifications.
//!
//! The campaign service accepts [`CampaignSpec`]s over the wire, so the
//! declarative grid needs a canonical JSON form next to its Rust one.
//! The dialect is the workspace's usual hand-rolled one
//! ([`qdc_congest::json`]): objects with a fixed field order,
//! integer-only numbers, no floats — drop probabilities stay in
//! per-mille, exactly as [`CampaignGrid`] stores them.
//!
//! ```text
//! {"name":"smoke","grid":{"kind":"simthm","gammas":[4],"lengths":[9],"bandwidth":16}}
//! {"name":"loss","grid":{"kind":"chaos","nodes":12,"extra_edges":3,
//!                        "drop_pm":[0,250],"seeds":[1,2],"bandwidth":8}}
//! {"name":"gad","grid":{"kind":"gadgets","bit_sizes":[4,6],"seeds":[1],"bandwidth":32}}
//! ```
//!
//! [`spec_from_json`] is strict in the same sense as the record
//! validators: unknown or reordered fields are rejected, not ignored.
//! It checks *shape* only — semantic validation (empty axes, Γ = 0, …)
//! stays with [`CampaignSpec::validate`], so the service can map shape
//! errors and semantic errors to distinct structured responses.

use crate::spec::{CampaignGrid, CampaignSpec};
use qdc_congest::json::{self, Json};

fn num_array(items: &[u64]) -> Json {
    Json::Arr(items.iter().map(|&n| Json::Num(n)).collect())
}

fn usize_array(items: &[usize]) -> Json {
    Json::Arr(items.iter().map(|&n| Json::Num(n as u64)).collect())
}

/// Renders a spec in the canonical JSON form (stable field order,
/// integers only). [`spec_from_json`] accepts exactly this shape.
pub fn spec_to_json(spec: &CampaignSpec) -> Json {
    let grid = match &spec.grid {
        CampaignGrid::SimThm {
            gammas,
            lengths,
            bandwidth,
        } => Json::obj([
            ("kind", Json::Str("simthm".into())),
            ("gammas", usize_array(gammas)),
            ("lengths", usize_array(lengths)),
            ("bandwidth", Json::Num(*bandwidth as u64)),
        ]),
        CampaignGrid::Chaos {
            nodes,
            extra_edges,
            drop_pm,
            seeds,
            bandwidth,
        } => Json::obj([
            ("kind", Json::Str("chaos".into())),
            ("nodes", Json::Num(*nodes as u64)),
            ("extra_edges", Json::Num(*extra_edges as u64)),
            (
                "drop_pm",
                Json::Arr(drop_pm.iter().map(|&pm| Json::Num(u64::from(pm))).collect()),
            ),
            ("seeds", num_array(seeds)),
            ("bandwidth", Json::Num(*bandwidth as u64)),
        ]),
        CampaignGrid::Gadgets {
            bit_sizes,
            seeds,
            bandwidth,
        } => Json::obj([
            ("kind", Json::Str("gadgets".into())),
            ("bit_sizes", usize_array(bit_sizes)),
            ("seeds", num_array(seeds)),
            ("bandwidth", Json::Num(*bandwidth as u64)),
        ]),
        CampaignGrid::Ex11 {
            bits,
            bandwidths,
            distances,
        } => Json::obj([
            ("kind", Json::Str("ex11".into())),
            ("bits", usize_array(bits)),
            ("bandwidths", usize_array(bandwidths)),
            ("distances", usize_array(distances)),
        ]),
    };
    Json::obj([("name", Json::Str(spec.name.clone())), ("grid", grid)])
}

fn get_usize(doc: &Json, key: &str) -> Result<usize, String> {
    let n = doc
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("`{key}` must be an unsigned integer"))?;
    usize::try_from(n).map_err(|_| format!("`{key}` is out of range"))
}

fn get_u64_array(doc: &Json, key: &str) -> Result<Vec<u64>, String> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        return Err(format!("`{key}` must be an array"));
    };
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("`{key}` must hold unsigned integers"))
        })
        .collect()
}

fn get_usize_array(doc: &Json, key: &str) -> Result<Vec<usize>, String> {
    get_u64_array(doc, key)?
        .into_iter()
        .map(|n| usize::try_from(n).map_err(|_| format!("`{key}` entry is out of range")))
        .collect()
}

/// Parses a spec from its canonical JSON form. Strict: the exact field
/// list in the exact order for the declared grid `kind`, integer-only
/// axes. Shape errors surface here as messages; semantic validation is
/// the caller's next step ([`CampaignSpec::validate`]).
pub fn spec_from_json(doc: &Json) -> Result<CampaignSpec, String> {
    json::require_keys(doc, &["name", "grid"], &[])?;
    let Some(Json::Str(name)) = doc.get("name") else {
        return Err("`name` must be a string".into());
    };
    let grid_doc = doc.get("grid").expect("checked above");
    let Some(Json::Str(kind)) = grid_doc.get("kind") else {
        return Err("`grid.kind` must be a string".into());
    };
    let grid = match kind.as_str() {
        "simthm" => {
            json::require_keys(grid_doc, &["kind", "gammas", "lengths", "bandwidth"], &[])
                .map_err(|e| format!("grid: {e}"))?;
            CampaignGrid::SimThm {
                gammas: get_usize_array(grid_doc, "gammas")?,
                lengths: get_usize_array(grid_doc, "lengths")?,
                bandwidth: get_usize(grid_doc, "bandwidth")?,
            }
        }
        "chaos" => {
            json::require_keys(
                grid_doc,
                &[
                    "kind",
                    "nodes",
                    "extra_edges",
                    "drop_pm",
                    "seeds",
                    "bandwidth",
                ],
                &[],
            )
            .map_err(|e| format!("grid: {e}"))?;
            CampaignGrid::Chaos {
                nodes: get_usize(grid_doc, "nodes")?,
                extra_edges: get_usize(grid_doc, "extra_edges")?,
                drop_pm: get_u64_array(grid_doc, "drop_pm")?
                    .into_iter()
                    .map(|pm| {
                        u32::try_from(pm).map_err(|_| "`drop_pm` entry is out of range".to_string())
                    })
                    .collect::<Result<_, _>>()?,
                seeds: get_u64_array(grid_doc, "seeds")?,
                bandwidth: get_usize(grid_doc, "bandwidth")?,
            }
        }
        "gadgets" => {
            json::require_keys(grid_doc, &["kind", "bit_sizes", "seeds", "bandwidth"], &[])
                .map_err(|e| format!("grid: {e}"))?;
            CampaignGrid::Gadgets {
                bit_sizes: get_usize_array(grid_doc, "bit_sizes")?,
                seeds: get_u64_array(grid_doc, "seeds")?,
                bandwidth: get_usize(grid_doc, "bandwidth")?,
            }
        }
        "ex11" => {
            json::require_keys(grid_doc, &["kind", "bits", "bandwidths", "distances"], &[])
                .map_err(|e| format!("grid: {e}"))?;
            CampaignGrid::Ex11 {
                bits: get_usize_array(grid_doc, "bits")?,
                bandwidths: get_usize_array(grid_doc, "bandwidths")?,
                distances: get_usize_array(grid_doc, "distances")?,
            }
        }
        other => return Err(format!("unknown grid kind `{other}`")),
    };
    Ok(CampaignSpec {
        name: name.clone(),
        grid,
    })
}

/// Parses a spec from JSON text (one document, no trailing garbage).
pub fn parse_spec(text: &str) -> Result<CampaignSpec, String> {
    spec_from_json(&json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{builtin, builtin_names};

    #[test]
    fn spec_io_round_trips_every_builtin() {
        for name in builtin_names() {
            let spec = builtin(name).expect("builtin");
            let text = spec_to_json(&spec).to_json();
            let back = parse_spec(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back, spec, "{name} round-trips structurally");
            assert_eq!(
                spec_to_json(&back).to_json(),
                text,
                "{name} round-trips byte-exactly"
            );
        }
    }

    #[test]
    fn spec_io_parses_a_hand_written_chaos_grid() {
        let text = "{\"name\":\"loss\",\"grid\":{\"kind\":\"chaos\",\"nodes\":12,\
                    \"extra_edges\":3,\"drop_pm\":[0,250],\"seeds\":[1,2],\"bandwidth\":8}}";
        let spec = parse_spec(text).expect("parses");
        assert_eq!(spec.name, "loss");
        assert_eq!(
            spec.grid,
            CampaignGrid::Chaos {
                nodes: 12,
                extra_edges: 3,
                drop_pm: vec![0, 250],
                seeds: vec![1, 2],
                bandwidth: 8,
            }
        );
        spec.validate().expect("semantically valid too");
    }

    #[test]
    fn spec_io_rejects_malformed_documents() {
        for (bad, why) in [
            ("{}", "missing name"),
            ("{\"name\":\"x\"}", "missing grid"),
            (
                "{\"grid\":{\"kind\":\"simthm\"},\"name\":\"x\"}",
                "reordered fields",
            ),
            (
                "{\"name\":\"x\",\"grid\":{\"kind\":\"nope\"}}",
                "unknown grid kind",
            ),
            (
                "{\"name\":\"x\",\"grid\":{\"kind\":\"simthm\",\"gammas\":[4],\
                 \"lengths\":[9],\"bandwidth\":16,\"extra\":1}}",
                "unknown trailing field",
            ),
            (
                "{\"name\":\"x\",\"grid\":{\"kind\":\"simthm\",\"gammas\":[4.5],\
                 \"lengths\":[9],\"bandwidth\":16}}",
                "non-integer axis entry",
            ),
            (
                "{\"name\":\"x\",\"grid\":{\"kind\":\"chaos\",\"nodes\":12,\
                 \"extra_edges\":3,\"drop_pm\":0,\"seeds\":[1],\"bandwidth\":8}}",
                "scalar where an array is required",
            ),
            (
                "{\"name\":7,\"grid\":{\"kind\":\"gadgets\",\"bit_sizes\":[4],\
                 \"seeds\":[1],\"bandwidth\":32}}",
                "non-string name",
            ),
        ] {
            assert!(parse_spec(bad).is_err(), "should reject {why}: {bad}");
        }
    }

    #[test]
    fn spec_io_shape_check_leaves_semantics_to_validate() {
        // An empty axis is *shape-valid* JSON — the split of concerns
        // puts the semantic rejection in CampaignSpec::validate, so the
        // service can distinguish a 400 (bad shape) from a structured
        // CampaignError body.
        let text = "{\"name\":\"x\",\"grid\":{\"kind\":\"simthm\",\"gammas\":[],\
                    \"lengths\":[9],\"bandwidth\":16}}";
        let spec = parse_spec(text).expect("shape is fine");
        assert!(spec.validate().is_err(), "semantics are not");
    }
}
