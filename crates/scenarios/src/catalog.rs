//! The scenario catalog: named, serializable evaluation worlds.
//!
//! A [`Scenario`] composes three orthogonal axes — *where* the node
//! lives ([`SiteSpec`]: a paper site preset or a custom latitude ×
//! climate), *what* the node is ([`NodeProfile`]: hardware tiers from a
//! coin-cell mote to a mains-class gateway), and *what goes wrong*
//! ([`FaultSpec`] perturbations) — plus the evaluation horizon. The
//! built-in [`Catalog`] spans the regimes the DATE'10 paper never
//! reached: polar night, monsoon onset, hardware faults.

use crate::faults::FaultSpec;
use crate::json::Json;
use harvest_sim::{EnergyStorage, Load, NodeConfig, SolarPanel};
use solar_synth::{Site, SiteConfig, SiteConfigBuilder, StreamVersion, WeatherModel};
use solar_trace::Resolution;

/// Climate family for custom sites.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Climate {
    /// Stable desert ([`WeatherModel::desert`]).
    Desert,
    /// Continental/temperate ([`WeatherModel::temperate`]).
    Temperate,
    /// Marine/foggy coast ([`WeatherModel::marine`]).
    Marine,
    /// Wet/dry subtropical ([`WeatherModel::monsoon`]).
    Monsoon,
    /// High-latitude maritime ([`WeatherModel::arctic`]).
    Arctic,
}

impl Climate {
    /// All climates.
    pub const ALL: [Climate; 5] = [
        Climate::Desert,
        Climate::Temperate,
        Climate::Marine,
        Climate::Monsoon,
        Climate::Arctic,
    ];

    /// The weather model of this climate.
    pub fn weather(self) -> WeatherModel {
        match self {
            Climate::Desert => WeatherModel::desert(),
            Climate::Temperate => WeatherModel::temperate(),
            Climate::Marine => WeatherModel::marine(),
            Climate::Monsoon => WeatherModel::monsoon(),
            Climate::Arctic => WeatherModel::arctic(),
        }
    }

    /// Stable identifier used in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Climate::Desert => "desert",
            Climate::Temperate => "temperate",
            Climate::Marine => "marine",
            Climate::Monsoon => "monsoon",
            Climate::Arctic => "arctic",
        }
    }

    /// Parses the JSON identifier.
    pub fn from_code(s: &str) -> Result<Climate, String> {
        Climate::ALL
            .into_iter()
            .find(|c| c.as_str() == s)
            .ok_or_else(|| format!("unknown climate {s:?}"))
    }
}

/// Where a scenario's node lives.
#[derive(Clone, Debug, PartialEq)]
pub enum SiteSpec {
    /// One of the six DATE'10 measurement sites.
    Paper(Site),
    /// A custom site assembled from latitude, resolution, and climate.
    Custom {
        /// Geographic latitude in degrees (north positive).
        latitude_deg: f64,
        /// Sample period in minutes (must divide a day).
        resolution_minutes: u32,
        /// Climate family.
        climate: Climate,
    },
    /// A custom site with continuous weather-shaping axes — the form
    /// the parameterized catalog generators emit. Extends
    /// [`SiteSpec::Custom`] with a cloudiness tilt on the climate's
    /// weather model and a deterministic clear-sky turbidity loss, so
    /// hundreds of distinct regimes fit between two climate presets.
    Shaped {
        /// Geographic latitude in degrees (north positive).
        latitude_deg: f64,
        /// Sample period in minutes (must divide a day).
        resolution_minutes: u32,
        /// Climate family.
        climate: Climate,
        /// Weather tilt in `[1/8, 8]`: `1.0` = the climate preset,
        /// `> 1` cloudier, `< 1` clearer.
        cloudiness: f64,
        /// Clear-sky fraction removed by haze, in `[0, 0.8]`.
        turbidity: f64,
        /// RNG stream version of the generated trace. V1 (the
        /// default) is the original scalar draw order; V2 is the
        /// lane-batched order. Serialized as `"stream": 2` only when
        /// V2, so existing catalogs stay byte-identical.
        stream_version: StreamVersion,
    },
}

impl SiteSpec {
    /// Builds the generator configuration; `name` seeds the custom
    /// site's RNG stream.
    pub fn config(&self, name: &str) -> Result<SiteConfig, String> {
        match *self {
            SiteSpec::Paper(site) => Ok(site.config()),
            SiteSpec::Custom {
                latitude_deg,
                resolution_minutes,
                climate,
            } => SiteConfigBuilder::new(name)
                .latitude_deg(latitude_deg)
                .resolution(
                    Resolution::from_minutes(resolution_minutes).map_err(|e| e.to_string())?,
                )
                .weather(climate.weather())
                .build(),
            SiteSpec::Shaped {
                latitude_deg,
                resolution_minutes,
                climate,
                cloudiness,
                turbidity,
                stream_version,
            } => SiteConfigBuilder::new(name)
                .latitude_deg(latitude_deg)
                .resolution(
                    Resolution::from_minutes(resolution_minutes).map_err(|e| e.to_string())?,
                )
                .weather(climate.weather())
                .cloudiness(cloudiness)
                .turbidity(turbidity)
                .stream_version(stream_version)
                .build(),
        }
    }

    fn to_json(&self) -> Json {
        match *self {
            SiteSpec::Paper(site) => Json::obj([("preset", Json::Str(site.code().into()))]),
            SiteSpec::Custom {
                latitude_deg,
                resolution_minutes,
                climate,
            } => Json::obj([
                ("latitude_deg", Json::Num(latitude_deg)),
                ("resolution_minutes", Json::Num(resolution_minutes as f64)),
                ("climate", Json::Str(climate.as_str().into())),
            ]),
            SiteSpec::Shaped {
                latitude_deg,
                resolution_minutes,
                climate,
                cloudiness,
                turbidity,
                stream_version,
            } => {
                let mut fields = vec![
                    ("latitude_deg", Json::Num(latitude_deg)),
                    ("resolution_minutes", Json::Num(resolution_minutes as f64)),
                    ("climate", Json::Str(climate.as_str().into())),
                    ("cloudiness", Json::Num(cloudiness)),
                    ("turbidity", Json::Num(turbidity)),
                ];
                // V1 stays implicit so pre-version catalogs round-trip
                // byte-exactly.
                if stream_version == StreamVersion::V2 {
                    fields.push(("stream", Json::Num(2.0)));
                }
                Json::obj(fields)
            }
        }
    }

    fn from_json(value: &Json) -> Result<SiteSpec, String> {
        if let Some(preset) = value.get("preset") {
            let code = preset.as_str().ok_or("site preset must be a string")?;
            let site = Site::ALL
                .into_iter()
                .find(|s| s.code() == code)
                .ok_or_else(|| format!("unknown site preset {code:?}"))?;
            return Ok(SiteSpec::Paper(site));
        }
        let latitude_deg = value.req_num("latitude_deg")?;
        let resolution_minutes =
            u32::try_from(value.req_index("resolution_minutes")?).map_err(|e| e.to_string())?;
        let climate = Climate::from_code(value.req_str("climate")?)?;
        // The shaping axes travel together: a site carrying either is
        // the generated form and must round-trip byte-exactly.
        if value.get("cloudiness").is_some() || value.get("turbidity").is_some() {
            let stream_version = match value.get("stream") {
                None => StreamVersion::V1,
                Some(v) => match v.as_num().map(|n| n as i64) {
                    Some(1) => StreamVersion::V1,
                    Some(2) => StreamVersion::V2,
                    _ => return Err(format!("unknown stream version {v:?}")),
                },
            };
            return Ok(SiteSpec::Shaped {
                latitude_deg,
                resolution_minutes,
                climate,
                cloudiness: value.req_num("cloudiness")?,
                turbidity: value.req_num("turbidity")?,
                stream_version,
            });
        }
        Ok(SiteSpec::Custom {
            latitude_deg,
            resolution_minutes,
            climate,
        })
    }
}

/// Node hardware tier.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeProfile {
    /// Coin-cell-class sensing mote: 4 cm² panel, 60 J store, 5 mW
    /// active.
    TinyMote,
    /// The workhorse mote of the paper's framing: 100 cm² panel, 2 kJ
    /// supercap bank with realistic losses, 50 mW active.
    Mote,
    /// A mains-class gateway/edge node: 0.1 m² panel, 50 kJ battery,
    /// 1.2 W active.
    Gateway,
}

impl NodeProfile {
    /// Stable identifier used in JSON and reports.
    pub fn name(&self) -> &'static str {
        match self {
            NodeProfile::TinyMote => "tiny-mote",
            NodeProfile::Mote => "mote",
            NodeProfile::Gateway => "gateway",
        }
    }

    /// Builds the simulator hardware; `capacity_factor` applies storage
    /// fade (1.0 = nameplate).
    pub fn node_config(&self, capacity_factor: f64) -> Result<NodeConfig, String> {
        let build = |panel_m2: f64,
                     panel_eff: f64,
                     capacity_j: f64,
                     initial_soc: f64,
                     charge_eff: f64,
                     discharge_eff: f64,
                     leakage_w: f64,
                     active_w: f64,
                     sleep_w: f64|
         -> Result<NodeConfig, String> {
            let capacity = capacity_j * capacity_factor;
            Ok(NodeConfig {
                panel: SolarPanel::new(panel_m2, panel_eff).map_err(|e| e.to_string())?,
                storage: EnergyStorage::with_losses(
                    capacity,
                    capacity * initial_soc,
                    charge_eff,
                    discharge_eff,
                    leakage_w,
                )
                .map_err(|e| e.to_string())?,
                load: Load::new(active_w, sleep_w).map_err(|e| e.to_string())?,
            })
        };
        match *self {
            NodeProfile::TinyMote => {
                build(0.0004, 0.15, 60.0, 0.5, 0.95, 0.95, 0.00002, 0.005, 0.00002)
            }
            NodeProfile::Mote => build(0.01, 0.15, 2000.0, 0.5, 0.9, 0.9, 0.001, 0.05, 0.0005),
            NodeProfile::Gateway => build(0.1, 0.18, 50_000.0, 0.5, 0.92, 0.92, 0.01, 1.2, 0.02),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([("profile", Json::Str(self.name().into()))])
    }

    fn from_json(value: &Json) -> Result<NodeProfile, String> {
        match value.req_str("profile")? {
            "tiny-mote" => Ok(NodeProfile::TinyMote),
            "mote" => Ok(NodeProfile::Mote),
            "gateway" => Ok(NodeProfile::Gateway),
            other => Err(format!("unknown node profile {other:?}")),
        }
    }
}

/// One named evaluation world.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Unique catalog key (kebab-case).
    pub name: String,
    /// One-line human description.
    pub summary: String,
    /// Where the node lives.
    pub site: SiteSpec,
    /// Evaluation horizon in days.
    pub days: usize,
    /// Prediction discretization `N`.
    pub slots_per_day: u32,
    /// Node hardware tier.
    pub node: NodeProfile,
    /// Fault/perturbation list (may be empty).
    pub faults: Vec<FaultSpec>,
}

impl Scenario {
    /// Validates the scenario: buildable site, valid faults, and a
    /// horizon long enough for the paper's 20-day warm-up to leave
    /// evaluation points.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must be non-empty".to_string());
        }
        if self.days < 25 {
            return Err(format!(
                "scenario {:?}: days {} leaves no room after the 20-day warm-up",
                self.name, self.days
            ));
        }
        let config = self.site.config(&self.name)?;
        let samples_per_day = config.resolution.samples_per_day();
        if self.slots_per_day == 0 || samples_per_day % self.slots_per_day as usize != 0 {
            return Err(format!(
                "scenario {:?}: N={} does not divide {} samples/day",
                self.name, self.slots_per_day, samples_per_day
            ));
        }
        for fault in &self.faults {
            fault
                .validate()
                .map_err(|e| format!("scenario {:?}: {e}", self.name))?;
            if let FaultSpec::PanelOutage { start_day, .. }
            | FaultSpec::ClimateDimming { start_day, .. }
            | FaultSpec::PanelSoiling { start_day, .. } = fault
            {
                if *start_day >= self.days {
                    return Err(format!(
                        "scenario {:?}: day-ranged fault starts at day {start_day}, \
                         past the {}-day horizon (it would silently never fire)",
                        self.name, self.days
                    ));
                }
            }
        }
        self.node.node_config(1.0)?;
        Ok(())
    }

    /// The generator configuration for this scenario.
    pub fn site_config(&self) -> Result<SiteConfig, String> {
        self.site.config(&self.name)
    }

    /// Whether `self` is `earlier` with its horizon grown by zero or
    /// more days and every other field equal. The JSON form is a
    /// function of the value, so value equality is never looser than
    /// equality of the rendered documents.
    pub(crate) fn extends(&self, earlier: &Scenario) -> bool {
        let Scenario {
            name,
            summary,
            site,
            days,
            slots_per_day,
            node,
            faults,
        } = earlier;
        self.days >= *days
            && self.name == *name
            && self.summary == *summary
            && self.site == *site
            && self.slots_per_day == *slots_per_day
            && self.node == *node
            && self.faults == *faults
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("summary", Json::Str(self.summary.clone())),
            ("site", self.site.to_json()),
            ("days", Json::Num(self.days as f64)),
            ("slots_per_day", Json::Num(self.slots_per_day as f64)),
            ("node", self.node.to_json()),
            (
                "faults",
                Json::Arr(self.faults.iter().map(FaultSpec::to_json).collect()),
            ),
        ])
    }

    /// Parses and validates the JSON form.
    pub fn from_json(value: &Json) -> Result<Scenario, String> {
        let faults = value
            .req("faults")?
            .as_arr()
            .ok_or("faults must be an array")?
            .iter()
            .map(FaultSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let scenario = Scenario {
            name: value.req_str("name")?.to_string(),
            summary: value.req_str("summary")?.to_string(),
            site: SiteSpec::from_json(value.req("site")?)?,
            days: value.req_index("days")? as usize,
            slots_per_day: u32::try_from(value.req_index("slots_per_day")?)
                .map_err(|e| e.to_string())?,
            node: NodeProfile::from_json(value.req("node")?)?,
            faults,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Parses a scenario from JSON text.
    pub fn from_json_str(text: &str) -> Result<Scenario, String> {
        Scenario::from_json(&Json::parse(text)?)
    }
}

/// A named collection of scenarios.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    scenarios: Vec<Scenario>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The built-in catalog: thirteen regimes spanning geography (both
    /// hemispheres and the equator), climate, hardware tier, fault
    /// mode, and horizon — including multi-year entries (a two-year
    /// temperate run and a three-year monsoon run with a la-niña-style
    /// year-over-year anomaly) that exercise long slot series.
    /// Every entry validates; a unit test enforces it stays that way.
    pub fn builtin() -> Self {
        let mut catalog = Catalog::new();
        let entries = vec![
            Scenario {
                name: "desert-clear-sky".into(),
                summary: "Phoenix-like desert, the paper's easiest regime".into(),
                site: SiteSpec::Paper(Site::Pfci),
                days: 40,
                slots_per_day: 48,
                node: NodeProfile::Mote,
                faults: vec![],
            },
            Scenario {
                name: "marine-fog".into(),
                summary: "Foggy Pacific coast, persistent morning attenuation".into(),
                site: SiteSpec::Paper(Site::Hsu),
                days: 45,
                slots_per_day: 48,
                node: NodeProfile::Mote,
                faults: vec![],
            },
            Scenario {
                name: "continental-storms".into(),
                summary: "Oak-Ridge-like broken-cloud churn on a gateway node".into(),
                site: SiteSpec::Paper(Site::Ornl),
                days: 40,
                slots_per_day: 96,
                node: NodeProfile::Gateway,
                faults: vec![],
            },
            Scenario {
                name: "four-seasons".into(),
                summary: "Mid-latitude continental site through winter into spring".into(),
                site: SiteSpec::Custom {
                    latitude_deg: 45.0,
                    resolution_minutes: 5,
                    climate: Climate::Temperate,
                },
                days: 150,
                slots_per_day: 48,
                node: NodeProfile::Mote,
                faults: vec![],
            },
            Scenario {
                name: "monsoon-plateau".into(),
                summary: "Subtropical wet/dry year: clear winter, monsoon summer".into(),
                site: SiteSpec::Custom {
                    latitude_deg: 20.0,
                    resolution_minutes: 5,
                    climate: Climate::Monsoon,
                },
                days: 365,
                slots_per_day: 48,
                node: NodeProfile::Mote,
                faults: vec![],
            },
            Scenario {
                name: "southern-four-seasons".into(),
                summary: "Patagonian mid-latitude site: seasons phase-inverted vs the north".into(),
                site: SiteSpec::Custom {
                    latitude_deg: -43.0,
                    resolution_minutes: 5,
                    climate: Climate::Temperate,
                },
                days: 150,
                slots_per_day: 48,
                node: NodeProfile::Mote,
                faults: vec![],
            },
            Scenario {
                name: "equatorial-rainband".into(),
                summary: "Near-equator site: flat day length, afternoon convective storms".into(),
                site: SiteSpec::Custom {
                    latitude_deg: 1.5,
                    resolution_minutes: 5,
                    climate: Climate::Monsoon,
                },
                days: 90,
                slots_per_day: 48,
                node: NodeProfile::TinyMote,
                faults: vec![],
            },
            Scenario {
                name: "biennial-temperate".into(),
                summary: "Two full years at a mid-latitude continental site — the \
                          multi-year horizon the streamed engine path evaluates \
                          without materializing the trace"
                    .into(),
                site: SiteSpec::Custom {
                    latitude_deg: 45.0,
                    resolution_minutes: 5,
                    climate: Climate::Temperate,
                },
                days: 730,
                slots_per_day: 48,
                node: NodeProfile::Mote,
                faults: vec![],
            },
            Scenario {
                name: "la-nina-triennium".into(),
                summary: "Three monsoon years with a la-niña-style anomaly: the \
                          middle year runs 18% dimmer, so day-of-year history \
                          from year one misleads year two"
                    .into(),
                site: SiteSpec::Custom {
                    latitude_deg: -8.0,
                    resolution_minutes: 5,
                    climate: Climate::Monsoon,
                },
                days: 1095,
                slots_per_day: 48,
                node: NodeProfile::Mote,
                faults: vec![FaultSpec::ClimateDimming {
                    start_day: 365,
                    duration_days: 365,
                    factor: 0.82,
                }],
            },
            Scenario {
                name: "arctic-winter".into(),
                summary: "68°N polar night tail on a coin-cell mote".into(),
                site: SiteSpec::Custom {
                    latitude_deg: 68.0,
                    resolution_minutes: 5,
                    climate: Climate::Arctic,
                },
                days: 80,
                slots_per_day: 24,
                node: NodeProfile::TinyMote,
                faults: vec![],
            },
            Scenario {
                name: "dead-panel-outage".into(),
                summary: "Continental site with a five-day total panel outage".into(),
                site: SiteSpec::Paper(Site::Spmd),
                days: 40,
                slots_per_day: 48,
                node: NodeProfile::Mote,
                faults: vec![FaultSpec::PanelOutage {
                    start_day: 25,
                    duration_days: 5,
                }],
            },
            Scenario {
                name: "aging-node".into(),
                summary: "Humid subtropical site, faded storage and a flaky sensor".into(),
                site: SiteSpec::Paper(Site::Ecsu),
                days: 40,
                slots_per_day: 48,
                node: NodeProfile::Mote,
                faults: vec![
                    FaultSpec::StorageFade {
                        capacity_factor: 0.5,
                    },
                    FaultSpec::SensorDropout { rate: 0.02 },
                ],
            },
            Scenario {
                name: "gappy-telemetry-desert".into(),
                summary: "Las-Vegas-like desert with logger gaps and dropouts".into(),
                site: SiteSpec::Paper(Site::Npcs),
                days: 40,
                slots_per_day: 48,
                node: NodeProfile::Mote,
                faults: vec![
                    FaultSpec::TraceGap {
                        gaps_per_100_days: 12.0,
                        mean_slots: 6.0,
                    },
                    FaultSpec::SensorDropout { rate: 0.05 },
                ],
            },
        ];
        for scenario in entries {
            catalog
                .push(scenario)
                .expect("builtin catalog must validate");
        }
        catalog
    }

    /// Adds a scenario after validating it; names must be unique.
    pub fn push(&mut self, scenario: Scenario) -> Result<(), String> {
        scenario.validate()?;
        if self.get(&scenario.name).is_some() {
            return Err(format!("duplicate scenario name {:?}", scenario.name));
        }
        self.scenarios.push(scenario);
        Ok(())
    }

    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// All scenarios, in insertion order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Scenario names, in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.scenarios.iter().map(|s| s.name.as_str()).collect()
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_catalog_validates_and_is_diverse() {
        let catalog = Catalog::builtin();
        assert!(
            catalog.len() >= 6,
            "need ≥6 scenarios, got {}",
            catalog.len()
        );
        for scenario in catalog.scenarios() {
            scenario.validate().unwrap();
        }
        // At least one faulted, one custom-site, one southern-hemisphere,
        // one near-equator, and one non-Mote entry.
        assert!(catalog.scenarios().iter().any(|s| !s.faults.is_empty()));
        assert!(catalog.scenarios().iter().any(|s| matches!(
            s.site,
            SiteSpec::Custom { latitude_deg, .. } if latitude_deg < 0.0
        )));
        assert!(catalog.scenarios().iter().any(|s| matches!(
            s.site,
            SiteSpec::Custom { latitude_deg, .. } if latitude_deg.abs() < 10.0
        )));
        assert!(catalog
            .scenarios()
            .iter()
            .any(|s| matches!(s.site, SiteSpec::Custom { .. })));
        assert!(catalog
            .scenarios()
            .iter()
            .any(|s| s.node != NodeProfile::Mote));
        // Multi-year coverage: at least a 2-year and a 3-year horizon,
        // and one with a year-over-year climate anomaly.
        assert!(catalog.scenarios().iter().any(|s| s.days >= 730));
        assert!(catalog.scenarios().iter().any(|s| s.days >= 1095));
        assert!(catalog.scenarios().iter().any(|s| s.faults.iter().any(
            |f| matches!(f, FaultSpec::ClimateDimming { start_day, .. } if *start_day >= 365)
        )));
    }

    #[test]
    fn builtin_names_are_unique() {
        let catalog = Catalog::builtin();
        let mut names = catalog.names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), catalog.len());
    }

    #[test]
    fn every_builtin_scenario_round_trips_through_json() {
        for scenario in Catalog::builtin().scenarios() {
            let text = scenario.to_json().render_pretty();
            let back = Scenario::from_json_str(&text).unwrap();
            assert_eq!(&back, scenario, "{}", scenario.name);
        }
    }

    #[test]
    fn validation_rejects_bad_scenarios() {
        let mut s = Catalog::builtin().get("desert-clear-sky").unwrap().clone();
        s.days = 10;
        assert!(s.validate().is_err());

        let mut s = Catalog::builtin().get("desert-clear-sky").unwrap().clone();
        s.slots_per_day = 7; // does not divide 1440
        assert!(s.validate().is_err());

        let mut s = Catalog::builtin().get("aging-node").unwrap().clone();
        s.faults.push(FaultSpec::SensorDropout { rate: 2.0 });
        assert!(s.validate().is_err());
    }

    #[test]
    fn catalog_rejects_duplicates() {
        let mut catalog = Catalog::builtin();
        let first = catalog.scenarios()[0].clone();
        assert!(catalog.push(first).is_err());
    }

    #[test]
    fn node_profiles_build_hardware() {
        for profile in [
            NodeProfile::TinyMote,
            NodeProfile::Mote,
            NodeProfile::Gateway,
        ] {
            let config = profile.node_config(1.0).unwrap();
            assert!(config.storage.capacity_j() > 0.0);
            let faded = profile.node_config(0.5).unwrap();
            assert!((faded.storage.capacity_j() - config.storage.capacity_j() * 0.5).abs() < 1e-9);
        }
        assert!(NodeProfile::Mote.node_config(0.0).is_err());
    }

    #[test]
    fn shaped_sites_build_and_round_trip() {
        let scenario = Scenario {
            name: "shaped-coast".into(),
            summary: "a hazier, cloudier marine coast".into(),
            site: SiteSpec::Shaped {
                latitude_deg: 38.5,
                resolution_minutes: 5,
                climate: Climate::Marine,
                cloudiness: 1.5,
                turbidity: 0.2,
                stream_version: StreamVersion::V1,
            },
            days: 40,
            slots_per_day: 48,
            node: NodeProfile::Mote,
            faults: vec![],
        };
        scenario.validate().unwrap();
        let config = scenario.site_config().unwrap();
        assert!((config.turbidity - 0.2).abs() < 1e-12);
        // JSON round-trips byte-exactly and re-parses to equality.
        let text = scenario.to_json().render_pretty();
        let back = Scenario::from_json_str(&text).unwrap();
        assert_eq!(back, scenario);
        assert_eq!(back.to_json().render_pretty(), text);
        // Out-of-range axes are rejected at validation.
        let mut bad = scenario.clone();
        if let SiteSpec::Shaped { cloudiness, .. } = &mut bad.site {
            *cloudiness = 20.0;
        }
        assert!(bad.validate().is_err());
    }

    #[test]
    fn custom_site_configs_build() {
        for climate in Climate::ALL {
            let spec = SiteSpec::Custom {
                latitude_deg: 35.0,
                resolution_minutes: 5,
                climate,
            };
            let config = spec.config("test-site").unwrap();
            assert_eq!(config.name, "test-site");
            assert_eq!(Climate::from_code(climate.as_str()).unwrap(), climate);
        }
        assert!(Climate::from_code("lunar").is_err());
    }
}
