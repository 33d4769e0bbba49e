//! Parameterized catalog generators: climate-family templates expanded
//! into hundreds of concrete scenarios from a single seed.
//!
//! The builtin [`Catalog`](crate::Catalog) hand-writes thirteen regimes;
//! fleet-scale conclusions need hundreds (Basha et al. validate across
//! geographically distributed deployments, and Mziou-Sallami et al. show
//! prediction-error consequences are regime-dependent). A
//! [`RegimeTemplate`] describes one climate family as a cross product of
//! axes — a latitude sweep, continuous cloudiness/turbidity shaping (the
//! [`solar_synth::SiteConfigBuilder`] axes carried by
//! [`SiteSpec::Shaped`]), hardware tiers, and [`FaultMix`] presets — and
//! a [`CatalogGenerator`] expands a set of templates deterministically:
//!
//! * **one seed, whole catalog** — the generator seed salts every
//!   generated name, and the name drives the per-scenario trace seed
//!   stream, so two generators with different seeds produce structurally
//!   identical catalogs over *different* random worlds;
//! * **stable ids** — a generated id is a pure function of
//!   `(seed, family, axis values)`, independent of axis ordering or how
//!   many other combinations exist, so adding an axis value never
//!   renames existing scenarios (pinned by tests);
//! * **round-trippable** — every generated scenario is plain catalog
//!   data: its JSON round-trips byte-exactly and re-validates, so
//!   generated catalogs flow through `FleetMatrix`, the engine's
//!   streamed/sharded paths, the cache, and the tuner unchanged.

use crate::catalog::{Catalog, Climate, NodeProfile, Scenario, SiteSpec};
use crate::faults::FaultSpec;
use solar_synth::{SiteConfigBuilder, StreamVersion};

/// A named fault-mix preset attached to generated scenarios — the
/// fault-axis analogue of the climate presets.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultMix {
    /// No faults.
    Clean,
    /// Faded storage and a flaky sensor (the `aging-node` recipe).
    Aging,
    /// Logger gaps plus sensor dropouts (the `gappy-telemetry` recipe).
    Gappy,
    /// A mid-horizon climate-dimming anomaly (a la-niña-style span).
    Dimmed,
}

impl FaultMix {
    /// Stable identifier used in generated ids.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultMix::Clean => "clean",
            FaultMix::Aging => "aging",
            FaultMix::Gappy => "gappy",
            FaultMix::Dimmed => "dimmed",
        }
    }

    /// The concrete fault list for a `days`-day horizon.
    pub fn faults(self, days: usize) -> Vec<FaultSpec> {
        match self {
            FaultMix::Clean => vec![],
            FaultMix::Aging => vec![
                FaultSpec::StorageFade {
                    capacity_factor: 0.6,
                },
                FaultSpec::SensorDropout { rate: 0.02 },
            ],
            FaultMix::Gappy => vec![
                FaultSpec::TraceGap {
                    gaps_per_100_days: 10.0,
                    mean_slots: 6.0,
                },
                FaultSpec::SensorDropout { rate: 0.04 },
            ],
            FaultMix::Dimmed => vec![FaultSpec::ClimateDimming {
                start_day: days / 3,
                duration_days: (days / 4).max(1),
                factor: 0.8,
            }],
        }
    }
}

/// One climate-family template: the cross product of its axis values
/// expands into concrete [`Scenario`]s via [`RegimeTemplate::expand`]
/// (usually through a [`CatalogGenerator`]).
#[derive(Clone, Debug)]
pub struct RegimeTemplate {
    /// Kebab-case family stem, unique within a generator; part of every
    /// generated id.
    pub family: String,
    /// Climate family of every site this template emits.
    pub climate: Climate,
    /// Latitude sweep in degrees (north positive, within ±85).
    pub latitudes_deg: Vec<f64>,
    /// Cloudiness-tilt axis (`1.0` = the climate preset, `[1/8, 8]`).
    pub cloudiness: Vec<f64>,
    /// Turbidity axis (clear-sky fraction removed, `[0, 0.8]`).
    pub turbidity: Vec<f64>,
    /// Hardware tiers (storage and load classes).
    pub nodes: Vec<NodeProfile>,
    /// Fault-mix presets.
    pub fault_mixes: Vec<FaultMix>,
    /// Evaluation horizon in days (≥ 25 for the warm-up).
    pub days: usize,
    /// Prediction discretization `N`.
    pub slots_per_day: u32,
    /// Sample period in minutes.
    pub resolution_minutes: u32,
    /// RNG stream version of every generated trace. V1 ids are
    /// unchanged from before versioning existed; V2 ids carry a `-v2`
    /// segment so an id never silently changes meaning.
    pub stream_version: StreamVersion,
}

/// Rejects duplicates under `key` so two axis values can never collide
/// into one generated id.
fn check_unique<T, K: PartialEq>(
    axis: &str,
    values: &[T],
    key: impl Fn(&T) -> K,
) -> Result<(), String> {
    if values.is_empty() {
        return Err(format!("template axis {axis:?} must be non-empty"));
    }
    for (i, a) in values.iter().enumerate() {
        if values[i + 1..].iter().any(|b| key(b) == key(a)) {
            return Err(format!("template axis {axis:?} has duplicate values"));
        }
    }
    Ok(())
}

impl RegimeTemplate {
    /// Validates the template: non-empty, duplicate-free axes with
    /// in-range values and a horizon the catalog accepts.
    pub fn validate(&self) -> Result<(), String> {
        if self.family.is_empty() {
            return Err("template family must be non-empty".to_string());
        }
        check_unique("latitudes_deg", &self.latitudes_deg, |v| v.to_bits())?;
        check_unique("cloudiness", &self.cloudiness, |v| v.to_bits())?;
        check_unique("turbidity", &self.turbidity, |v| v.to_bits())?;
        check_unique("nodes", &self.nodes, |n| n.name())?;
        check_unique("fault_mixes", &self.fault_mixes, |m| m.as_str())?;
        // Per-axis range checks delegate to `SiteConfigBuilder` (one
        // probe build per axis value), so the latitude/cloudiness/
        // turbidity bounds live in exactly one place — the builder —
        // while template assembly still fails eagerly instead of
        // mid-expansion.
        let probe = |builder: SiteConfigBuilder| {
            builder
                .build()
                .map(|_| ())
                .map_err(|e| format!("template {:?}: {e}", self.family))
        };
        for &latitude in &self.latitudes_deg {
            probe(SiteConfigBuilder::new("axis-probe").latitude_deg(latitude))?;
        }
        for &cloudiness in &self.cloudiness {
            probe(SiteConfigBuilder::new("axis-probe").cloudiness(cloudiness))?;
        }
        for &turbidity in &self.turbidity {
            probe(SiteConfigBuilder::new("axis-probe").turbidity(turbidity))?;
        }
        if self.days < 25 {
            return Err(format!(
                "template {:?}: {} days leaves no room after the 20-day warm-up",
                self.family, self.days
            ));
        }
        Ok(())
    }

    /// Number of scenarios this template expands into.
    pub fn count(&self) -> usize {
        self.latitudes_deg.len()
            * self.cloudiness.len()
            * self.turbidity.len()
            * self.nodes.len()
            * self.fault_mixes.len()
    }

    /// The stable id of one axis combination: a pure function of the
    /// generator seed, the family, and the axis *values* (floats render
    /// in shortest round-trip form), never of axis positions.
    fn scenario_id(
        &self,
        seed: u64,
        latitude: f64,
        cloudiness: f64,
        turbidity: f64,
        node: &NodeProfile,
        mix: FaultMix,
    ) -> String {
        let version = match self.stream_version {
            // V1 predates versioning: no segment, so every id minted
            // before stream versions existed is byte-unchanged.
            StreamVersion::V1 => "",
            StreamVersion::V2 => "-v2",
        };
        format!(
            "g{seed:x}-{}-lat{latitude}-cl{cloudiness}-tb{turbidity}-{}-{}{version}",
            self.family,
            node.name(),
            mix.as_str()
        )
    }

    /// Expands the full cross product into validated scenarios, in
    /// deterministic axis order (latitude → cloudiness → turbidity →
    /// node → fault mix).
    ///
    /// # Errors
    ///
    /// Returns the first template- or scenario-validation error.
    pub fn expand(&self, seed: u64) -> Result<Vec<Scenario>, String> {
        self.validate()?;
        let mut scenarios = Vec::with_capacity(self.count());
        for &latitude in &self.latitudes_deg {
            for &cloudiness in &self.cloudiness {
                for &turbidity in &self.turbidity {
                    for node in &self.nodes {
                        for &mix in &self.fault_mixes {
                            let scenario = Scenario {
                                name: self
                                    .scenario_id(seed, latitude, cloudiness, turbidity, node, mix),
                                summary: format!(
                                    "generated {}: {} at {latitude}°, cloudiness ×{cloudiness}, \
                                     turbidity {turbidity}, {} node, {} faults",
                                    self.family,
                                    self.climate.as_str(),
                                    node.name(),
                                    mix.as_str()
                                ),
                                site: SiteSpec::Shaped {
                                    latitude_deg: latitude,
                                    resolution_minutes: self.resolution_minutes,
                                    climate: self.climate,
                                    cloudiness,
                                    turbidity,
                                    stream_version: self.stream_version,
                                },
                                days: self.days,
                                slots_per_day: self.slots_per_day,
                                node: node.clone(),
                                faults: mix.faults(self.days),
                            };
                            scenario
                                .validate()
                                .map_err(|e| format!("template {:?}: {e}", self.family))?;
                            scenarios.push(scenario);
                        }
                    }
                }
            }
        }
        Ok(scenarios)
    }
}

/// Deterministic expansion of a template set into a [`Catalog`]: one
/// seed in, hundreds of distinct regimes out, each with a stable id (a
/// pure function of seed, family, and axis values — never of axis
/// positions) and byte-exact JSON round-tripping, so generated catalogs
/// flow through the engine, cache, shards, and tuner unchanged.
#[derive(Clone, Debug)]
pub struct CatalogGenerator {
    seed: u64,
    templates: Vec<RegimeTemplate>,
}

impl CatalogGenerator {
    /// A generator over the builtin climate families
    /// ([`CatalogGenerator::builtin_families`]).
    pub fn new(seed: u64) -> Self {
        CatalogGenerator {
            seed,
            templates: Self::builtin_families(),
        }
    }

    /// The builtin climate-family templates: five families spanning
    /// both hemispheres, the equatorial band, continuous
    /// cloudiness/turbidity shaping, three hardware tiers, and the
    /// fault-mix presets — just under 300 regimes in total.
    pub fn builtin_families() -> Vec<RegimeTemplate> {
        let belt = |family: &str,
                    climate: Climate,
                    latitudes: Vec<f64>,
                    cloudiness: Vec<f64>,
                    turbidity: Vec<f64>,
                    nodes: Vec<NodeProfile>,
                    mixes: Vec<FaultMix>| RegimeTemplate {
            family: family.to_string(),
            climate,
            latitudes_deg: latitudes,
            cloudiness,
            turbidity,
            nodes,
            fault_mixes: mixes,
            days: 30,
            slots_per_day: 48,
            resolution_minutes: 5,
            stream_version: StreamVersion::V1,
        };
        vec![
            belt(
                "desert-belt",
                Climate::Desert,
                vec![18.0, 26.0, 34.0, 42.0],
                vec![0.5, 1.0, 2.0],
                vec![0.0, 0.3],
                vec![NodeProfile::Mote, NodeProfile::TinyMote],
                vec![FaultMix::Clean, FaultMix::Gappy],
            ),
            belt(
                "temperate-belt",
                Climate::Temperate,
                vec![-52.0, -38.0, 38.0, 52.0],
                vec![0.5, 1.0, 2.0],
                vec![0.0, 0.2],
                vec![NodeProfile::Mote, NodeProfile::Gateway],
                vec![FaultMix::Clean, FaultMix::Aging],
            ),
            belt(
                "marine-coast",
                Climate::Marine,
                vec![-45.0, 35.0, 48.0],
                vec![0.75, 1.5],
                vec![0.0, 0.25],
                vec![NodeProfile::Mote],
                vec![FaultMix::Clean, FaultMix::Aging],
            ),
            belt(
                "monsoon-band",
                Climate::Monsoon,
                vec![-18.0, -6.0, 8.0, 21.0],
                vec![0.75, 1.25],
                vec![0.0, 0.2],
                vec![NodeProfile::Mote, NodeProfile::TinyMote],
                vec![FaultMix::Clean, FaultMix::Dimmed],
            ),
            belt(
                "arctic-rim",
                Climate::Arctic,
                vec![-68.0, 62.0, 70.0],
                vec![1.0, 1.5],
                vec![0.0],
                vec![NodeProfile::TinyMote],
                vec![FaultMix::Clean, FaultMix::Aging],
            ),
        ]
    }

    /// Switches every template to `version`. V2 changes both the
    /// generated trace streams and every id (a `-v2` segment), so a
    /// v2 catalog can never be mistaken for — or collide with — its
    /// v1 twin in caches, shards, or reports.
    pub fn with_stream_version(mut self, version: StreamVersion) -> Self {
        for template in &mut self.templates {
            template.stream_version = version;
        }
        self
    }

    /// The generator seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The templates, in expansion order.
    pub fn templates(&self) -> &[RegimeTemplate] {
        &self.templates
    }

    /// Total number of scenarios the templates expand into.
    pub fn total(&self) -> usize {
        self.templates.iter().map(RegimeTemplate::count).sum()
    }

    /// The first `count` scenarios in deterministic round-robin order
    /// across templates, so a small count still spans every climate
    /// family. Ids are unaffected by `count` (they derive from axis
    /// values, not positions): growing a fleet from 64 to 200 keeps the
    /// first 64 scenarios — names, JSON, traces — bit-identical.
    ///
    /// # Errors
    ///
    /// Rejects a zero count or one past [`CatalogGenerator::total`],
    /// and propagates validation errors.
    pub fn generate(&self, count: usize) -> Result<Catalog, String> {
        if count == 0 {
            return Err("generated catalog count must be at least 1".to_string());
        }
        let total = self.total();
        if count > total {
            return Err(format!(
                "generated catalog count {count} exceeds the {total} scenarios \
                 the templates expand into"
            ));
        }
        let mut lanes: Vec<std::vec::IntoIter<Scenario>> = Vec::with_capacity(self.templates.len());
        for template in &self.templates {
            lanes.push(template.expand(self.seed)?.into_iter());
        }
        let mut catalog = Catalog::new();
        let mut taken = 0;
        while taken < count {
            let mut progressed = false;
            for lane in &mut lanes {
                if taken == count {
                    break;
                }
                if let Some(scenario) = lane.next() {
                    catalog.push(scenario)?;
                    taken += 1;
                    progressed = true;
                }
            }
            if !progressed {
                return Err("template expansion ran dry before count".to_string());
            }
        }
        Ok(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_families_expand_past_two_hundred_validated_regimes() {
        let generator = CatalogGenerator::new(42);
        assert!(
            generator.total() >= 200,
            "builtin templates must expand to ≥200 regimes, got {}",
            generator.total()
        );
        let catalog = generator.generate(generator.total()).unwrap();
        assert_eq!(catalog.len(), generator.total());
        // Names are unique (Catalog::push enforces it; double-check).
        let mut names = catalog.names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), catalog.len());
        // Every climate family is represented.
        for climate in Climate::ALL {
            assert!(
                catalog.scenarios().iter().any(|s| matches!(
                    s.site,
                    SiteSpec::Shaped { climate: c, .. } if c == climate
                )),
                "{climate:?} missing from the generated catalog"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed_and_differs_across_seeds() {
        let a = CatalogGenerator::new(7).generate(40).unwrap();
        let b = CatalogGenerator::new(7).generate(40).unwrap();
        let c = CatalogGenerator::new(8).generate(40).unwrap();
        let render = |catalog: &Catalog| -> Vec<String> {
            catalog
                .scenarios()
                .iter()
                .map(|s| s.to_json().render())
                .collect()
        };
        assert_eq!(render(&a), render(&b));
        // A different seed renames every scenario (and hence re-seeds
        // every trace stream) while keeping the structure.
        assert_eq!(a.len(), c.len());
        for (x, y) in a.scenarios().iter().zip(c.scenarios()) {
            assert_ne!(x.name, y.name);
            assert_eq!(x.site, y.site);
        }
    }

    #[test]
    fn small_counts_interleave_across_families() {
        let catalog = CatalogGenerator::new(3).generate(5).unwrap();
        let climates: std::collections::BTreeSet<&str> = catalog
            .scenarios()
            .iter()
            .map(|s| match s.site {
                SiteSpec::Shaped { climate, .. } => climate.as_str(),
                _ => panic!("generated scenarios are Shaped"),
            })
            .collect();
        assert_eq!(climates.len(), 5, "5 scenarios must span 5 families");
    }

    #[test]
    fn ids_are_stable_under_axis_growth() {
        let narrow = RegimeTemplate {
            latitudes_deg: vec![10.0, 30.0],
            ..CatalogGenerator::builtin_families()[0].clone()
        };
        let wide = RegimeTemplate {
            latitudes_deg: vec![10.0, 20.0, 30.0],
            ..narrow.clone()
        };
        let narrow_set = narrow.expand(11).unwrap();
        let wide_set = wide.expand(11).unwrap();
        assert!(wide_set.len() > narrow_set.len());
        // Every narrow scenario survives in the wide expansion with an
        // identical id and identical JSON: adding an axis value never
        // renames (or re-seeds) existing regimes.
        for scenario in &narrow_set {
            let twin = wide_set
                .iter()
                .find(|s| s.name == scenario.name)
                .unwrap_or_else(|| panic!("{} missing from the wide expansion", scenario.name));
            assert_eq!(twin.to_json().render(), scenario.to_json().render());
        }
    }

    #[test]
    fn v2_catalogs_rename_and_round_trip() {
        let v1 = CatalogGenerator::new(7).generate(40).unwrap();
        let v2 = CatalogGenerator::new(7)
            .with_stream_version(StreamVersion::V2)
            .generate(40)
            .unwrap();
        assert_eq!(v1.len(), v2.len());
        for (a, b) in v1.scenarios().iter().zip(v2.scenarios()) {
            // Ids must differ (the -v2 segment) so the two streams can
            // never collide in caches or reports.
            assert_eq!(format!("{}-v2", a.name), b.name);
            match (&a.site, &b.site) {
                (
                    SiteSpec::Shaped {
                        stream_version: va, ..
                    },
                    SiteSpec::Shaped {
                        stream_version: vb, ..
                    },
                ) => {
                    assert_eq!(*va, StreamVersion::V1);
                    assert_eq!(*vb, StreamVersion::V2);
                }
                other => panic!("generated scenarios are Shaped: {other:?}"),
            }
            // v1 JSON carries no stream key (byte-compat with catalogs
            // minted before versioning); v2 JSON round-trips.
            let v1_text = a.to_json().render_pretty();
            assert!(!v1_text.contains("\"stream\""), "{v1_text}");
            let v2_text = b.to_json().render_pretty();
            assert!(v2_text.contains("\"stream\""), "{v2_text}");
            let back = Scenario::from_json_str(&v2_text).unwrap();
            assert_eq!(&back, b);
            assert_eq!(back.to_json().render_pretty(), v2_text);
        }
    }

    #[test]
    fn fault_mixes_materialize_their_presets() {
        assert!(FaultMix::Clean.faults(30).is_empty());
        for mix in [FaultMix::Aging, FaultMix::Gappy, FaultMix::Dimmed] {
            let faults = mix.faults(30);
            assert!(!faults.is_empty(), "{mix:?}");
            for fault in &faults {
                fault.validate().unwrap();
            }
        }
        // The dimmed span sits inside the horizon for any valid length.
        for days in [25, 30, 365] {
            match FaultMix::Dimmed.faults(days)[..] {
                [FaultSpec::ClimateDimming { start_day, .. }] => assert!(start_day < days),
                ref other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_templates_and_counts_are_rejected() {
        let base = CatalogGenerator::builtin_families()[0].clone();
        for breakage in [
            RegimeTemplate {
                family: String::new(),
                ..base.clone()
            },
            RegimeTemplate {
                latitudes_deg: vec![],
                ..base.clone()
            },
            RegimeTemplate {
                latitudes_deg: vec![10.0, 10.0],
                ..base.clone()
            },
            RegimeTemplate {
                latitudes_deg: vec![88.0],
                ..base.clone()
            },
            RegimeTemplate {
                cloudiness: vec![50.0],
                ..base.clone()
            },
            RegimeTemplate {
                turbidity: vec![0.95],
                ..base.clone()
            },
            RegimeTemplate {
                days: 10,
                ..base.clone()
            },
        ] {
            assert!(breakage.validate().is_err(), "{breakage:?}");
        }
        let generator = CatalogGenerator::new(1);
        assert!(generator.generate(0).is_err());
        assert!(generator.generate(generator.total() + 1).is_err());
    }
}
