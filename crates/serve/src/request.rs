//! The wire-level job description and its canonical identity.
//!
//! A [`SimRequest`] names everything that determines a simulation's result:
//! the Table II workload, the image scale, the machine shape, the cycle
//! engine, the compiler options and the cycle budget. Deliberately *not*
//! part of the identity: the wall-clock deadline, which changes when an
//! answer stops being useful but never what the answer is — so it is
//! excluded from [`SimRequest::canonical_key`] and two requests differing
//! only in deadline share one cache entry.

use ipim_core::{
    fnv1a, workload_by_name, CompileOptions, ComputeRootPolicy, Engine, MachineConfig, Placement,
    RegAllocPolicy, ScheduleOverride, Session, Workload, WorkloadScale,
};
use ipim_trace::json;

/// One simulation job, as plain data that crosses threads and the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRequest {
    /// Table II workload name (case-insensitive lookup).
    pub workload: String,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Cubes in the simulated machine (default 1). A multi-cube request
    /// tiles its image across all `cubes × vaults` vaults, with cross-cube
    /// traffic crossing the SERDES links (paper Sec. IV-E) — the paper's
    /// 8-cube / 8K-image regime. Result-determining, so part of the cache
    /// identity whenever it departs from the single-cube default.
    pub cubes: usize,
    /// Vaults per cube.
    pub vaults: usize,
    /// Cycle engine: `SkipAhead` (default), `Legacy`, or `Analytic` —
    /// the prediction tier, which answers cost/admission questions from
    /// the model alone (the response carries `fidelity:"approximate"`).
    pub engine: Engine,
    /// Register-allocation policy (`Max` = the paper's `opt`).
    pub reg_alloc: RegAllocPolicy,
    /// Run Algorithm 1 instruction reordering.
    pub reorder: bool,
    /// Add memory-order-enforcement edges before reordering.
    pub memory_order: bool,
    /// Simulation cycle budget; exhausting it yields a `Timeout` response.
    pub max_cycles: u64,
    /// Schedule override applied over the workload's hand-written mapping
    /// (`ScheduleOverride::default()` = keep it). Result-determining, so
    /// part of the cache identity whenever non-empty.
    pub schedule: ScheduleOverride,
    /// Where the compute logic sits: `NearBank` (iPIM, the default) or
    /// `BaseDie` (the paper's PonB baseline, Sec. VII-C1) — what the
    /// benchmark-matrix `ponb` backend selects. Result-determining, so
    /// part of the cache identity whenever it departs from the near-bank
    /// default (the default is invisible on the wire and in the canonical
    /// key, keeping every pre-existing fingerprint unchanged).
    pub placement: Placement,
    /// Wall-clock deadline in milliseconds from admission (`None` = no
    /// deadline). Not part of the cache identity.
    pub deadline_ms: Option<u64>,
}

impl Default for SimRequest {
    fn default() -> Self {
        Self {
            workload: "Brighten".to_string(),
            width: 64,
            height: 64,
            cubes: 1,
            vaults: 1,
            engine: Engine::SkipAhead,
            reg_alloc: RegAllocPolicy::Max,
            reorder: true,
            memory_order: true,
            max_cycles: 2_000_000_000,
            schedule: ScheduleOverride::default(),
            placement: Placement::NearBank,
            deadline_ms: None,
        }
    }
}

impl SimRequest {
    /// A request for `workload` at `width`×`height` with every other field
    /// at its default.
    pub fn named(workload: &str, width: u32, height: u32) -> Self {
        Self { workload: workload.to_string(), width, height, ..Self::default() }
    }

    /// The compiler options the request selects.
    pub fn options(&self) -> CompileOptions {
        CompileOptions {
            reg_alloc: self.reg_alloc,
            reorder: self.reorder,
            memory_order: self.memory_order,
        }
    }

    /// The machine configuration the request selects: `cubes` cubes of
    /// `vaults` vaults each (the single-cube case is exactly the old
    /// [`MachineConfig::vault_slice`] shape).
    pub fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            engine: self.engine,
            cubes: self.cubes,
            placement: self.placement,
            ..MachineConfig::vault_slice(self.vaults)
        }
    }

    /// Instantiates the workload and a session for it.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown workload names, invalid machine
    /// shapes, or images smaller than 2×2 (Upsample's half-size input
    /// would have no pixels).
    pub fn instantiate(&self) -> Result<(Session, Workload), String> {
        let config = self.machine_config();
        config.validate()?;
        if self.width < 2 || self.height < 2 {
            return Err(format!(
                "image {}x{} is too small: width and height must be at least 2",
                self.width, self.height
            ));
        }
        let scale = WorkloadScale { width: self.width, height: self.height };
        let workload = workload_by_name(&self.workload, scale)
            .ok_or_else(|| format!("unknown workload {:?}", self.workload))?;
        let workload = if self.schedule.is_empty() {
            workload
        } else {
            workload.with_override(&self.schedule)?
        };
        Ok((Session::with_options(config, self.options()), workload))
    }

    /// Canonical textual identity: every result-determining field in one
    /// fixed order. Field order in the incoming JSON, the deadline, and
    /// workload-name case never change this string. A schedule override is
    /// result-determining, so it appends its canonical rendering — the
    /// *empty* override appends nothing, keeping override-free requests'
    /// keys (and fingerprints) exactly as they were. The cube count follows
    /// the same rule: the single-cube default appends nothing, so every
    /// pre-multi-cube fingerprint is unchanged.
    pub fn canonical_key(&self) -> String {
        let cubes = if self.cubes == 1 { String::new() } else { format!(";cubes={}", self.cubes) };
        let schedule = if self.schedule.is_empty() {
            String::new()
        } else {
            format!(";schedule={}", self.schedule)
        };
        let placement = if self.placement == Placement::NearBank {
            String::new()
        } else {
            format!(";placement={}", placement_name(self.placement))
        };
        format!(
            "workload={};width={};height={};vaults={};engine={};reg_alloc={};reorder={};\
             memory_order={};max_cycles={}{cubes}{schedule}{placement}",
            self.workload.to_ascii_lowercase(),
            self.width,
            self.height,
            self.vaults,
            engine_name(self.engine),
            reg_alloc_name(self.reg_alloc),
            self.reorder,
            self.memory_order,
            self.max_cycles,
        )
    }

    /// 64-bit FNV-1a of [`canonical_key`](Self::canonical_key) — the result
    /// cache's key.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.canonical_key().as_bytes())
    }

    /// Renders the request as a single-line JSON object (canonical field
    /// order), the ndjson wire format `ipim_served` accepts.
    pub fn to_json_string(&self) -> String {
        let cubes =
            if self.cubes == 1 { String::new() } else { format!(",\"cubes\":{}", self.cubes) };
        let schedule = if self.schedule.is_empty() {
            String::new()
        } else {
            format!(",\"schedule\":{}", schedule_json(&self.schedule))
        };
        let placement = if self.placement == Placement::NearBank {
            String::new()
        } else {
            format!(",\"placement\":\"{}\"", placement_name(self.placement))
        };
        let deadline =
            self.deadline_ms.map_or(String::new(), |ms| format!(",\"deadline_ms\":{ms}"));
        format!(
            "{{\"workload\":\"{}\",\"width\":{},\"height\":{},\"vaults\":{},\
             \"engine\":\"{}\",\"reg_alloc\":\"{}\",\"reorder\":{},\"memory_order\":{},\
             \"max_cycles\":{}{cubes}{schedule}{placement}{deadline}}}",
            json::escape(&self.workload),
            self.width,
            self.height,
            self.vaults,
            engine_name(self.engine),
            reg_alloc_name(self.reg_alloc),
            self.reorder,
            self.memory_order,
            self.max_cycles,
        )
    }

    /// Parses a request from one parsed JSON object. Missing optional
    /// fields fall back to [`SimRequest::default`]; `workload` is required.
    ///
    /// The machine may be at most the paper's Table III machine
    /// ([`MachineConfig::default`]: 8 cubes × 16 vaults) and the image at
    /// most DIV8K's pixel count ([`WorkloadScale::div8k`]), so one
    /// well-formed line cannot make a backend allocate past either.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field (and its limit).
    pub fn from_json(v: &json::Value) -> Result<Self, String> {
        let d = Self::default();
        let workload = v
            .get("workload")
            .and_then(json::Value::as_str)
            .ok_or("request needs a string \"workload\" field")?
            .to_string();
        let (width, height) = (get_u32(v, "width", d.width)?, get_u32(v, "height", d.height)?);
        let div8k = WorkloadScale::div8k();
        if u64::from(width) * u64::from(height) > div8k.pixels() {
            return Err(format!(
                "width x height must be at most {} pixels (DIV8K, {}x{}), got {width}x{height}",
                div8k.pixels(),
                div8k.width,
                div8k.height
            ));
        }
        let table3 = MachineConfig::default();
        Ok(Self {
            workload,
            width,
            height,
            cubes: get_dim(v, "cubes", d.cubes, table3.cubes)?,
            vaults: get_dim(v, "vaults", d.vaults, table3.vaults_per_cube)?,
            engine: match v.get("engine").map(|e| e.as_str().ok_or("engine must be a string")) {
                None => d.engine,
                Some(s) => parse_engine(s?)?,
            },
            reg_alloc: match v
                .get("reg_alloc")
                .map(|e| e.as_str().ok_or("reg_alloc must be a string"))
            {
                None => d.reg_alloc,
                Some(s) => parse_reg_alloc(s?)?,
            },
            reorder: get_bool(v, "reorder", d.reorder)?,
            memory_order: get_bool(v, "memory_order", d.memory_order)?,
            max_cycles: get_u64(v, "max_cycles", d.max_cycles)?,
            schedule: match v.get("schedule") {
                None | Some(json::Value::Null) => ScheduleOverride::default(),
                Some(s) => parse_schedule(s)?,
            },
            placement: match v
                .get("placement")
                .map(|p| p.as_str().ok_or("placement must be a string"))
            {
                None => d.placement,
                Some(s) => parse_placement(s?)?,
            },
            deadline_ms: match v.get("deadline_ms") {
                None | Some(json::Value::Null) => None,
                Some(x) => Some(x.as_f64().ok_or("deadline_ms must be a number")?.max(0.0) as u64),
            },
        })
    }

    /// Parses a request from one ndjson line.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or field errors.
    pub fn from_json_str(line: &str) -> Result<Self, String> {
        Self::from_json(&json::parse(line)?)
    }
}

fn engine_name(e: Engine) -> &'static str {
    match e {
        Engine::Legacy => "legacy",
        Engine::SkipAhead => "skip_ahead",
        Engine::Analytic => "analytic",
    }
}

fn parse_engine(s: &str) -> Result<Engine, String> {
    match s {
        "legacy" => Ok(Engine::Legacy),
        "skip_ahead" => Ok(Engine::SkipAhead),
        "analytic" => Ok(Engine::Analytic),
        other => Err(format!("unknown engine {other:?} (legacy | skip_ahead | analytic)")),
    }
}

fn placement_name(p: Placement) -> &'static str {
    match p {
        Placement::NearBank => "near_bank",
        Placement::BaseDie => "base_die",
    }
}

fn parse_placement(s: &str) -> Result<Placement, String> {
    match s {
        "near_bank" => Ok(Placement::NearBank),
        "base_die" => Ok(Placement::BaseDie),
        other => Err(format!("unknown placement {other:?} (near_bank | base_die)")),
    }
}

fn reg_alloc_name(p: RegAllocPolicy) -> &'static str {
    match p {
        RegAllocPolicy::Min => "min",
        RegAllocPolicy::Max => "max",
    }
}

fn parse_reg_alloc(s: &str) -> Result<RegAllocPolicy, String> {
    match s {
        "min" => Ok(RegAllocPolicy::Min),
        "max" => Ok(RegAllocPolicy::Max),
        other => Err(format!("unknown reg_alloc {other:?} (min | max)")),
    }
}

/// Renders a (non-empty) override as its nested JSON object, only the set
/// knobs, in canonical field order.
fn schedule_json(s: &ScheduleOverride) -> String {
    let mut fields = Vec::new();
    if let Some((w, h)) = s.tile {
        fields.push(format!("\"tile_w\":{w},\"tile_h\":{h}"));
    }
    if let Some(p) = s.load_pgsm {
        fields.push(format!("\"load_pgsm\":{p}"));
    }
    if s.compute_root != ComputeRootPolicy::Keep {
        fields.push(format!("\"compute_root\":\"{}\"", s.compute_root.name()));
    }
    format!("{{{}}}", fields.join(","))
}

/// Parses the optional nested `"schedule"` object: `tile_w`/`tile_h` (both
/// or neither), `load_pgsm`, `compute_root`. Other keys are ignored.
fn parse_schedule(v: &json::Value) -> Result<ScheduleOverride, String> {
    let opt_u32 = |key: &str| -> Result<Option<u32>, String> {
        match v.get(key) {
            None | Some(json::Value::Null) => Ok(None),
            Some(x) => {
                let n = x.as_f64().ok_or_else(|| format!("schedule.{key} must be a number"))?;
                if n < 1.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
                    return Err(format!("schedule.{key} must be a positive integer, got {n}"));
                }
                Ok(Some(n as u32))
            }
        }
    };
    let tile = match (opt_u32("tile_w")?, opt_u32("tile_h")?) {
        (Some(w), Some(h)) => Some((w, h)),
        (None, None) => None,
        _ => return Err("schedule needs both tile_w and tile_h (or neither)".to_string()),
    };
    let load_pgsm = match v.get("load_pgsm") {
        None | Some(json::Value::Null) => None,
        Some(json::Value::Bool(b)) => Some(*b),
        Some(_) => return Err("schedule.load_pgsm must be a boolean".to_string()),
    };
    let compute_root = match v.get("compute_root") {
        None | Some(json::Value::Null) => ComputeRootPolicy::Keep,
        Some(x) => {
            ComputeRootPolicy::parse(x.as_str().ok_or("schedule.compute_root must be a string")?)?
        }
    };
    Ok(ScheduleOverride { tile, load_pgsm, compute_root })
}

fn get_u64(v: &json::Value, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => {
            let n = x.as_f64().ok_or_else(|| format!("{key} must be a number"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("{key} must be a non-negative integer, got {n}"));
            }
            Ok(n as u64)
        }
    }
}

/// [`get_u64`] for a field stored as `u32`: a value past `u32::MAX` is an
/// error, never silently truncated.
fn get_u32(v: &json::Value, key: &str, default: u32) -> Result<u32, String> {
    let n = get_u64(v, key, default.into())?;
    u32::try_from(n).map_err(|_| format!("{key} must be at most {}, got {n}", u32::MAX))
}

/// [`get_u64`] for a machine dimension, bounded by the Table III
/// machine's `max`.
fn get_dim(v: &json::Value, key: &str, default: usize, max: usize) -> Result<usize, String> {
    let n = get_u64(v, key, default as u64)?;
    if n > max as u64 {
        return Err(format!("{key} must be at most {max} (the Table III machine), got {n}"));
    }
    Ok(n as usize)
}

fn get_bool(v: &json::Value, key: &str, default: bool) -> Result<bool, String> {
    match v.get(key) {
        None => Ok(default),
        Some(json::Value::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("{key} must be a boolean")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_preserves_identity() {
        let req = SimRequest {
            workload: "Blur".into(),
            width: 128,
            height: 96,
            cubes: 2,
            vaults: 2,
            engine: Engine::Legacy,
            reg_alloc: RegAllocPolicy::Min,
            reorder: false,
            memory_order: true,
            max_cycles: 123_456,
            deadline_ms: Some(2500),
            schedule: ScheduleOverride::default(),
            placement: Placement::BaseDie,
        };
        let back = SimRequest::from_json_str(&req.to_json_string()).unwrap();
        assert_eq!(req, back);
        assert_eq!(req.fingerprint(), back.fingerprint());
    }

    #[test]
    fn field_order_does_not_change_the_fingerprint() {
        let a = SimRequest::from_json_str(
            r#"{"workload":"Blur","width":64,"height":64,"max_cycles":1000}"#,
        )
        .unwrap();
        let b = SimRequest::from_json_str(
            r#"{"max_cycles":1000,"height":64,"width":64,"workload":"Blur"}"#,
        )
        .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn deadline_and_name_case_are_not_identity() {
        let mut a = SimRequest::named("Blur", 64, 64);
        let mut b = SimRequest::named("blur", 64, 64);
        a.deadline_ms = Some(10);
        b.deadline_ms = None;
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn result_determining_fields_are_identity() {
        let base = SimRequest::named("Blur", 64, 64);
        for other in [
            SimRequest { width: 128, ..base.clone() },
            SimRequest { cubes: 2, ..base.clone() },
            SimRequest { vaults: 2, ..base.clone() },
            SimRequest { engine: Engine::Legacy, ..base.clone() },
            SimRequest { reg_alloc: RegAllocPolicy::Min, ..base.clone() },
            SimRequest { reorder: false, ..base.clone() },
            SimRequest { max_cycles: 1, ..base.clone() },
            SimRequest { placement: Placement::BaseDie, ..base.clone() },
        ] {
            assert_ne!(base.fingerprint(), other.fingerprint(), "{other:?}");
        }
    }

    #[test]
    fn missing_workload_is_rejected() {
        assert!(SimRequest::from_json_str(r#"{"width":64}"#).is_err());
        assert!(SimRequest::from_json_str("not json").is_err());
        assert!(SimRequest::from_json_str(r#"{"workload":"Blur","width":-3}"#).is_err());
        assert!(SimRequest::from_json_str(r#"{"workload":"Blur","engine":"warp"}"#).is_err());
        assert!(SimRequest::from_json_str(r#"{"workload":"Blur","reorder":"yes"}"#).is_err());
    }

    #[test]
    fn oversized_extents_are_rejected_not_truncated() {
        // 2^32 + 64 must not wrap to a 64-pixel side.
        for key in ["width", "height"] {
            let line = format!(r#"{{"workload":"Blur","{key}":4294967360}}"#);
            let err = SimRequest::from_json_str(&line).unwrap_err();
            assert!(err.starts_with(key), "{err}");
        }
        // Past the Table III machine or DIV8K's pixel count is rejected;
        // u32::MAX passes the u32 check, untruncated, and then fails the
        // pixel limit.
        for (line, expect) in [
            (r#"{"workload":"Blur","width":4294967295}"#, "got 4294967295x64"),
            (r#"{"workload":"Blur","width":7681,"height":4320}"#, "at most 33177600 pixels"),
            (r#"{"workload":"Blur","cubes":9}"#, "cubes must be at most 8"),
            (r#"{"workload":"Blur","cubes":1e300}"#, "cubes must be at most 8"),
            (r#"{"workload":"Blur","vaults":17}"#, "vaults must be at most 16"),
        ] {
            let err = SimRequest::from_json_str(line).unwrap_err();
            assert!(err.contains(expect), "{line} → {err}");
        }
        let at_limit = SimRequest::from_json_str(
            r#"{"workload":"Blur","width":7680,"height":4320,"cubes":8,"vaults":16}"#,
        )
        .unwrap();
        assert_eq!((at_limit.width, at_limit.cubes, at_limit.vaults), (7680, 8, 16));
    }

    #[test]
    fn instantiate_rejects_images_below_2x2() {
        for (w, h) in [(64, 1), (1, 64), (0, 0)] {
            let err = SimRequest::named("Upsample", w, h).instantiate().unwrap_err();
            assert!(err.contains("too small"), "{w}x{h}: {err}");
        }
        assert!(SimRequest::named("Upsample", 2, 2).instantiate().is_ok());
    }

    #[test]
    fn instantiate_rejects_unknown_workloads() {
        assert!(SimRequest::named("NoSuchKernel", 64, 64).instantiate().is_err());
        let (_, w) = SimRequest::named("brighten", 64, 64).instantiate().unwrap();
        assert_eq!(w.name, "Brighten");
    }

    #[test]
    fn schedule_override_round_trips_and_hashes() {
        let mut req = SimRequest::named("Blur", 64, 64);
        let base_fp = req.fingerprint();
        req.schedule = ScheduleOverride {
            tile: Some((16, 8)),
            load_pgsm: Some(true),
            compute_root: ComputeRootPolicy::All,
        };
        let back = SimRequest::from_json_str(&req.to_json_string()).unwrap();
        assert_eq!(req, back);
        assert_ne!(req.fingerprint(), base_fp, "override must be part of the identity");
        assert!(req.canonical_key().contains("schedule=tile=16x8,pgsm=on,root=all"));

        // The empty override is the identity: explicit `{}` hashes like no
        // schedule field at all.
        let empty = SimRequest::from_json_str(r#"{"workload":"Blur","schedule":{}}"#).unwrap();
        assert_eq!(empty.fingerprint(), SimRequest::named("Blur", 64, 64).fingerprint());
        // `vectorize` is not a schedule knob: like any unknown key, it is
        // ignored.
        let vec2 =
            SimRequest::from_json_str(r#"{"workload":"Blur","schedule":{"vectorize":2}}"#).unwrap();
        assert_eq!(vec2, empty);
        assert_eq!(vec2.fingerprint(), empty.fingerprint());

        // Malformed overrides are named-field errors.
        assert!(
            SimRequest::from_json_str(r#"{"workload":"Blur","schedule":{"tile_w":8}}"#).is_err()
        );
        assert!(SimRequest::from_json_str(
            r#"{"workload":"Blur","schedule":{"compute_root":"sometimes"}}"#
        )
        .is_err());
        assert!(SimRequest::from_json_str(
            r#"{"workload":"Blur","schedule":{"tile_w":0,"tile_h":8}}"#
        )
        .is_err());
    }

    #[test]
    fn schedule_override_reaches_the_workload() {
        let mut req = SimRequest::named("Blur", 64, 64);
        req.schedule = ScheduleOverride { tile: Some((16, 4)), ..ScheduleOverride::default() };
        let (_, w) = req.instantiate().unwrap();
        assert!(w.pipeline.schedule_knobs().iter().all(|(_, s)| s.tile == (16, 4)));
        // An override the frontend rejects degrades to an instantiate error.
        req.schedule = ScheduleOverride { tile: Some((0, 4)), ..ScheduleOverride::default() };
        assert!(req.instantiate().is_err());
    }

    #[test]
    fn single_cube_keeps_the_historical_fingerprint() {
        // `cubes` follows the schedule-override precedent: the default is
        // invisible on the wire and in the canonical key, so every
        // pre-multi-cube fingerprint (and cache entry) survives.
        let base = SimRequest::named("Blur", 64, 64);
        assert!(!base.canonical_key().contains("cubes"));
        assert!(!base.to_json_string().contains("cubes"));
        let explicit = SimRequest::from_json_str(r#"{"workload":"Blur","cubes":1}"#).unwrap();
        assert_eq!(explicit.fingerprint(), base.fingerprint());

        let multi = SimRequest { cubes: 2, ..base.clone() };
        assert!(multi.canonical_key().contains(";cubes=2"));
        let back = SimRequest::from_json_str(&multi.to_json_string()).unwrap();
        assert_eq!(multi, back);
        let config = multi.machine_config();
        assert_eq!(config.cubes, 2);
        assert_eq!(config.total_vaults(), 2);
    }

    #[test]
    fn near_bank_keeps_the_historical_fingerprint() {
        // `placement` follows the cubes/schedule precedent: the near-bank
        // default is invisible on the wire and in the canonical key, so
        // every pre-PonB-backend fingerprint (and cache entry) survives.
        let base = SimRequest::named("Blur", 64, 64);
        assert!(!base.canonical_key().contains("placement"));
        assert!(!base.to_json_string().contains("placement"));
        let explicit =
            SimRequest::from_json_str(r#"{"workload":"Blur","placement":"near_bank"}"#).unwrap();
        assert_eq!(explicit.fingerprint(), base.fingerprint());

        let ponb = SimRequest { placement: Placement::BaseDie, ..base.clone() };
        assert!(ponb.canonical_key().contains(";placement=base_die"));
        let back = SimRequest::from_json_str(&ponb.to_json_string()).unwrap();
        assert_eq!(ponb, back);
        assert_eq!(ponb.machine_config().placement, Placement::BaseDie);
        assert!(
            SimRequest::from_json_str(r#"{"workload":"Blur","placement":"on_the_moon"}"#).is_err()
        );
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
