//! The wire protocol of the obfuscation service.
//!
//! Frames are a 4-byte big-endian length prefix followed by that many
//! bytes of UTF-8 JSON (compact, canonical — see
//! [`obfuscade::json::Json::render`]). Both directions use the same
//! framing; a frame above [`MAX_FRAME`] bytes is rejected before any
//! allocation. Every request carries a client-chosen `id` that the
//! matching response echoes, so a client can pipeline requests on one
//! connection.
//!
//! This module is the one definition of every message: each type's
//! `to_json` and `from_json` are what both codecs carry and decode
//! ([`crate::codec`]). Decoding is closed-world — a repeated field, or
//! a field the message does not read, is an error — and a wire integer
//! must be below 2^53 ([`Json::as_u64`]).
//!
//! The payload encodings are pure functions of the decoded values: equal
//! results render to byte-identical frames, which is what lets the wire
//! equivalence suite compare a served batch against an in-process
//! [`obfuscade::run_pipeline_jobs`] call byte-for-byte.

use std::collections::HashSet;
use std::io::{self, Read, Write};

use am_cad::parts::{
    bracket, bracket_with_spline, intact_prism, prism_with_sphere, tensile_bar,
    tensile_bar_with_spline, BracketDims, PrismDims, TensileBarDims,
};
use am_cad::{BodyKind, MaterialRemoval, Part};
use am_mesh::Resolution;
use am_slicer::{Orientation, SlicerConfig};
use obfuscade::json::{parse_json, Json};
use obfuscade::{FaultPlan, PipelineError, PipelineOutput, ProcessPlan};

/// Hard cap on a single frame payload (8 MiB): far above any real request
/// or response, low enough that a corrupt length prefix cannot trigger a
/// giant allocation.
pub const MAX_FRAME: usize = 8 << 20;

/// Writes one length-prefixed frame and flushes the stream.
///
/// # Errors
///
/// `InvalidInput` if the payload exceeds [`MAX_FRAME`]; otherwise any
/// underlying I/O error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds the {MAX_FRAME} byte cap", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed between
/// frames); an EOF in the middle of a frame is an error.
///
/// # Errors
///
/// `InvalidData` if the length prefix exceeds [`MAX_FRAME`]; otherwise
/// any underlying I/O error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut head = [0u8; 4];
    loop {
        match r.read(&mut head[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut head[1..])?;
    let len = u32::from_be_bytes(head) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len} byte frame (cap {MAX_FRAME})"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// One manufacturing job, fully described by value — the wire analogue of
/// a [`obfuscade::BatchJob`]. Every field has a default, so a request may
/// send only what it overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Demo part family: `bar`, `bracket` or `prism`.
    pub part: String,
    /// Build the intact (unprotected) variant instead of the obfuscated
    /// one.
    pub intact: bool,
    /// STL export resolution.
    pub resolution: Resolution,
    /// Build orientation.
    pub orientation: Orientation,
    /// Process-noise / specimen seed.
    pub seed: u64,
    /// Run the virtual tensile test.
    pub tensile: bool,
    /// Optional coarse slicing override: sets `layer_height` and
    /// `road_width` to this value and `analysis_cell` to half of it. The
    /// default (0.7 mm) keeps service jobs cheap; send `null` for the
    /// slicer's native defaults.
    pub layer: Option<f64>,
    /// Fault-injection spec string ([`FaultPlan`] syntax; empty = clean).
    pub faults: String,
    /// Seed for the fault plan's stochastic faults.
    pub fault_seed: u64,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            part: "prism".to_string(),
            intact: false,
            resolution: Resolution::Coarse,
            orientation: Orientation::Xy,
            seed: 1,
            tensile: false,
            layer: Some(0.7),
            faults: String::new(),
            fault_seed: 1,
        }
    }
}

fn resolution_name(r: Resolution) -> &'static str {
    match r {
        Resolution::Coarse => "coarse",
        Resolution::Fine => "fine",
        Resolution::Custom => "custom",
    }
}

fn orientation_name(o: Orientation) -> &'static str {
    match o {
        Orientation::Xy => "xy",
        Orientation::Xz => "xz",
    }
}

impl JobSpec {
    /// The spec as a JSON object (stable field order).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("part".into(), Json::str(self.part.clone())),
            ("intact".into(), Json::Bool(self.intact)),
            ("resolution".into(), Json::str(resolution_name(self.resolution))),
            ("orientation".into(), Json::str(orientation_name(self.orientation))),
            ("seed".into(), Json::u64(self.seed)),
            ("tensile".into(), Json::Bool(self.tensile)),
            (
                "layer".into(),
                match self.layer {
                    Some(v) => Json::Number(v),
                    None => Json::Null,
                },
            ),
            ("faults".into(), Json::str(self.faults.clone())),
            ("fault_seed".into(), Json::u64(self.fault_seed)),
        ])
    }

    /// Decodes a spec from a JSON object; absent fields keep defaults.
    ///
    /// # Errors
    ///
    /// A description of the first malformed, repeated or unknown field.
    pub fn from_json(v: Json) -> Result<JobSpec, String> {
        let mut f = Fields::new(v, "job spec")?;
        let d = JobSpec::default();
        let spec = JobSpec {
            part: f.string("part")?.unwrap_or(d.part),
            intact: f.bool("intact")?.unwrap_or(d.intact),
            resolution: match f.string("resolution")?.as_deref() {
                None => d.resolution,
                Some("coarse") => Resolution::Coarse,
                Some("fine") => Resolution::Fine,
                Some("custom") => Resolution::Custom,
                Some(other) => {
                    return Err(format!("unknown resolution `{other}` (coarse|fine|custom)"))
                }
            },
            orientation: match f.string("orientation")?.as_deref() {
                None => d.orientation,
                Some("xy") => Orientation::Xy,
                Some("xz") => Orientation::Xz,
                Some(other) => return Err(format!("unknown orientation `{other}` (xy|xz)")),
            },
            seed: f.u64("seed")?.unwrap_or(d.seed),
            tensile: f.bool("tensile")?.unwrap_or(d.tensile),
            layer: match f.take("layer") {
                None => d.layer,
                Some(Json::Null) => None,
                Some(Json::Number(v)) if v.is_finite() && v > 0.0 => Some(v),
                Some(_) => return Err("`layer` must be null or a positive number".to_string()),
            },
            faults: f.string("faults")?.unwrap_or(d.faults),
            fault_seed: f.u64("fault_seed")?.unwrap_or(d.fault_seed),
        };
        f.finish()?;
        Ok(spec)
    }

    /// Builds the demo part the spec names.
    ///
    /// # Errors
    ///
    /// An unknown part family, or a CAD feature-history failure.
    pub fn build_part(&self) -> Result<Part, String> {
        match self.part.as_str() {
            "bar" => {
                let dims = TensileBarDims::default();
                if self.intact { tensile_bar(&dims) } else { tensile_bar_with_spline(&dims) }
            }
            "bracket" => {
                let dims = BracketDims::default();
                if self.intact { bracket(&dims) } else { bracket_with_spline(&dims) }
            }
            "prism" => {
                let dims = PrismDims::default();
                if self.intact {
                    Ok(intact_prism(&dims))
                } else {
                    prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::Without)
                }
            }
            other => return Err(format!("unknown part `{other}` (bar|bracket|prism)")),
        }
        .map_err(|e| e.to_string())
    }

    /// The process plan the spec describes.
    pub fn plan(&self) -> ProcessPlan {
        let mut plan = ProcessPlan::fdm(self.resolution, self.orientation)
            .with_seed(self.seed)
            .with_tensile(self.tensile);
        if let Some(layer) = self.layer {
            plan.slicer = SlicerConfig {
                layer_height: layer,
                road_width: layer,
                analysis_cell: layer / 2.0,
                ..SlicerConfig::default()
            };
        }
        plan
    }

    /// Parses the fault spec string into a seeded [`FaultPlan`].
    ///
    /// # Errors
    ///
    /// The first unrecognised fault token.
    pub fn fault_plan(&self) -> Result<FaultPlan, String> {
        self.faults
            .parse::<FaultPlan>()
            .map(|p| p.with_seed(self.fault_seed))
            .map_err(|e| e.to_string())
    }

    /// The mesh→slice stage-key prefix this job would warm — the routing
    /// key of the cache-affinity fleet. Pure: materialises the part and
    /// plans without executing any pipeline stage, then delegates to
    /// [`obfuscade::prefix_key_for_job`]. Two specs with equal prefix
    /// keys share their expensive mesh/slice/toolpath work, so a router
    /// that keeps them on one backend preserves the warm-cache hit rate.
    ///
    /// # Errors
    ///
    /// A malformed part name or fault spec, same as [`JobSpec::build_part`]
    /// / [`JobSpec::fault_plan`].
    pub fn prefix_key(&self) -> Result<obfuscade::StageKey, String> {
        let part = self.build_part()?;
        let faults = self.fault_plan()?;
        Ok(obfuscade::prefix_key_for_job(&part, &self.plan(), &faults))
    }
}

/// One side-channel detection job: a suspect manufacturing job plus the
/// capture setup the daemon should judge it under. The wire analogue of
/// `am_detect::detect_counterfeit`'s inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectSpec {
    /// The suspect job (its `faults` field is the counterfeit hypothesis;
    /// the golden master is the same job with an empty fault plan).
    pub job: JobSpec,
    /// Capture-quality preset: `lab`, `smartphone`, or `room`.
    pub quality: String,
    /// Relative amplitude of the defender's noise emitter over the
    /// acoustic capture (0 = jamming off).
    pub jam_amplitude: f64,
    /// Seed of every capture-noise draw the job makes.
    pub trace_seed: u64,
}

impl Default for DetectSpec {
    fn default() -> Self {
        DetectSpec {
            job: JobSpec::default(),
            quality: "smartphone".to_string(),
            jam_amplitude: 0.0,
            trace_seed: 1,
        }
    }
}

impl DetectSpec {
    /// The spec as a JSON object (stable field order).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("job".into(), self.job.to_json()),
            ("quality".into(), Json::str(self.quality.clone())),
            ("jam_amplitude".into(), Json::Number(self.jam_amplitude)),
            ("trace_seed".into(), Json::u64(self.trace_seed)),
        ])
    }

    /// Decodes a spec from a JSON object; absent fields keep defaults.
    ///
    /// # Errors
    ///
    /// A description of the first malformed, repeated or unknown field.
    pub fn from_json(v: Json) -> Result<DetectSpec, String> {
        let mut f = Fields::new(v, "detect spec")?;
        let d = DetectSpec::default();
        let spec = DetectSpec {
            job: f.take("job").map_or(Ok(d.job), JobSpec::from_json)?,
            quality: f.string("quality")?.unwrap_or(d.quality),
            jam_amplitude: match f.take("jam_amplitude") {
                None => d.jam_amplitude,
                Some(Json::Number(v)) if v.is_finite() && v >= 0.0 => v,
                Some(_) => return Err("`jam_amplitude` must be a non-negative number".to_string()),
            },
            trace_seed: f.u64("trace_seed")?.unwrap_or(d.trace_seed),
        };
        f.finish()?;
        Ok(spec)
    }
}

/// One stego-sanitization job: a manufacturing job whose planned tool
/// path is scanned and stripped. The wire analogue of
/// `am_detect::sanitize_toolpath`'s inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizeSpec {
    /// The job whose tool path is sanitized.
    pub job: JobSpec,
    /// Seed of a payload to embed before sanitizing (0 = none: scan and
    /// strip the clean tool path).
    pub payload_seed: u64,
    /// Width of the scanned/stripped channel (bits per coordinate,
    /// 1–8).
    pub payload_bits: u64,
}

impl Default for SanitizeSpec {
    fn default() -> Self {
        SanitizeSpec { job: JobSpec::default(), payload_seed: 0, payload_bits: 2 }
    }
}

impl SanitizeSpec {
    /// The spec as a JSON object (stable field order).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("job".into(), self.job.to_json()),
            ("payload_seed".into(), Json::u64(self.payload_seed)),
            ("payload_bits".into(), Json::u64(self.payload_bits)),
        ])
    }

    /// Decodes a spec from a JSON object; absent fields keep defaults.
    ///
    /// # Errors
    ///
    /// A description of the first malformed, repeated or unknown field.
    pub fn from_json(v: Json) -> Result<SanitizeSpec, String> {
        let mut f = Fields::new(v, "sanitize spec")?;
        let d = SanitizeSpec::default();
        let spec = SanitizeSpec {
            job: f.take("job").map_or(Ok(d.job), JobSpec::from_json)?,
            payload_seed: f.u64("payload_seed")?.unwrap_or(d.payload_seed),
            payload_bits: match f.u64("payload_bits") {
                Ok(None) => d.payload_bits,
                Ok(Some(bits)) if (1..=8).contains(&bits) => bits,
                _ => return Err("`payload_bits` must be an integer in 1..=8".to_string()),
            },
        };
        f.finish()?;
        Ok(spec)
    }
}

/// A decoded request frame: client-chosen correlation id plus the body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Correlation id, echoed verbatim in the response.
    pub id: u64,
    /// What the client wants done.
    pub body: RequestBody,
}

/// The request kinds the service understands.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// One [`obfuscade::metrics::MetricsSnapshot`]; answered inline.
    Stats,
    /// Graceful drain: finish queued and in-flight jobs, then stop
    /// accepting and close the listeners. Answered with `bye` once the
    /// drain completes.
    Shutdown,
    /// A batch of manufacturing jobs for the shared pipeline engine.
    Run {
        /// The jobs, in response order.
        jobs: Vec<JobSpec>,
        /// Optional budget (ms) for the whole batch, admission included.
        deadline_ms: Option<u64>,
    },
    /// Manufacture one part and authenticate it from its internal scan.
    Authenticate {
        /// The single job to judge.
        job: JobSpec,
        /// Optional budget (ms).
        deadline_ms: Option<u64>,
    },
    /// A batch of side-channel detection jobs.
    Detect {
        /// The detection jobs, in response order.
        jobs: Vec<DetectSpec>,
        /// Optional budget (ms) for the whole batch.
        deadline_ms: Option<u64>,
    },
    /// A batch of stego-sanitization jobs.
    Sanitize {
        /// The sanitization jobs, in response order.
        jobs: Vec<SanitizeSpec>,
        /// Optional budget (ms) for the whole batch.
        deadline_ms: Option<u64>,
    },
}

/// The fields of one wire object, taken out by name. Building it
/// refuses a repeated key and [`Fields::finish`] refuses a key nothing
/// took, so every message is closed-world on both codecs.
struct Fields {
    what: &'static str,
    fields: Vec<(String, Json)>,
}

impl Fields {
    fn new(v: Json, what: &'static str) -> Result<Fields, String> {
        let Json::Object(fields) = v else {
            return Err(format!("{what} must be a JSON object"));
        };
        // A hash set keeps the check linear in a hostile object's size.
        let mut seen = HashSet::with_capacity(fields.len());
        if let Some((name, _)) = fields.iter().find(|(name, _)| !seen.insert(name.as_str())) {
            return Err(format!("repeated {what} field `{name}`"));
        }
        Ok(Fields { what, fields })
    }

    /// Removes the field `name`, if present.
    fn take(&mut self, name: &str) -> Option<Json> {
        let i = self.fields.iter().position(|(k, _)| k == name)?;
        Some(self.fields.remove(i).1)
    }

    fn string(&mut self, name: &str) -> Result<Option<String>, String> {
        match self.take(name) {
            None => Ok(None),
            Some(Json::String(s)) => Ok(Some(s)),
            Some(_) => Err(format!("`{name}` must be a string")),
        }
    }

    fn bool(&mut self, name: &str) -> Result<Option<bool>, String> {
        self.take(name)
            .map(|v| v.as_bool().ok_or_else(|| format!("`{name}` must be a bool")))
            .transpose()
    }

    fn u64(&mut self, name: &str) -> Result<Option<u64>, String> {
        self.take(name)
            .map(|v| v.as_u64().ok_or_else(|| format!("`{name}` must be an integer below 2^53")))
            .transpose()
    }

    fn number(&mut self, name: &str) -> Result<f64, String> {
        self.take(name)
            .as_ref()
            .and_then(Json::as_number)
            .ok_or_else(|| format!("missing number `{name}`"))
    }

    /// An array field as its elements.
    fn array(&mut self, name: &str) -> Result<Vec<Json>, String> {
        match self.take(name) {
            Some(Json::Array(items)) => Ok(items),
            _ => Err(format!("missing array `{name}`")),
        }
    }

    /// A batch of specs; an absent field is one default spec.
    fn batch<T: Default>(
        &mut self,
        name: &str,
        decode: fn(Json) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        match self.take(name) {
            None => Ok(vec![T::default()]),
            Some(Json::Array(items)) => items.into_iter().map(decode).collect(),
            Some(_) => Err(format!("`{name}` must be an array")),
        }
    }

    /// The envelope every message opens with: its `id` and `kind`.
    fn envelope(&mut self) -> Result<(u64, String), String> {
        let id = self.u64("id")?.ok_or("missing integer `id`")?;
        let kind = self.string("kind")?.ok_or("missing string `kind`")?;
        Ok((id, kind))
    }

    /// A request's optional `deadline_ms`; `null` means none.
    fn deadline(&mut self) -> Result<Option<u64>, String> {
        match self.take("deadline_ms") {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                "`deadline_ms` must be an integer below 2^53".to_string()
            }),
        }
    }

    /// Refuses any field no decoder took.
    fn finish(self) -> Result<(), String> {
        match self.fields.first() {
            None => Ok(()),
            Some((name, _)) => Err(format!("unknown {} field `{name}`", self.what)),
        }
    }
}

impl Request {
    /// The request as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("id".to_string(), Json::u64(self.id))];
        match &self.body {
            RequestBody::Ping => fields.push(("kind".into(), Json::str("ping"))),
            RequestBody::Stats => fields.push(("kind".into(), Json::str("stats"))),
            RequestBody::Shutdown => fields.push(("kind".into(), Json::str("shutdown"))),
            RequestBody::Run { jobs, deadline_ms } => {
                fields.push(("kind".into(), Json::str("run")));
                fields.push((
                    "jobs".into(),
                    Json::Array(jobs.iter().map(JobSpec::to_json).collect()),
                ));
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms".into(), Json::u64(*ms)));
                }
            }
            RequestBody::Authenticate { job, deadline_ms } => {
                fields.push(("kind".into(), Json::str("authenticate")));
                fields.push(("job".into(), job.to_json()));
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms".into(), Json::u64(*ms)));
                }
            }
            RequestBody::Detect { jobs, deadline_ms } => {
                fields.push(("kind".into(), Json::str("detect")));
                fields.push((
                    "jobs".into(),
                    Json::Array(jobs.iter().map(DetectSpec::to_json).collect()),
                ));
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms".into(), Json::u64(*ms)));
                }
            }
            RequestBody::Sanitize { jobs, deadline_ms } => {
                fields.push(("kind".into(), Json::str("sanitize")));
                fields.push((
                    "jobs".into(),
                    Json::Array(jobs.iter().map(SanitizeSpec::to_json).collect()),
                ));
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms".into(), Json::u64(*ms)));
                }
            }
        }
        Json::Object(fields)
    }

    /// Decodes a request from its JSON value.
    ///
    /// # Errors
    ///
    /// A description of the first malformed, repeated or unknown field.
    pub fn from_json(v: Json) -> Result<Request, String> {
        let mut f = Fields::new(v, "request")?;
        let (id, kind) = f.envelope()?;
        let body = match kind.as_str() {
            "ping" => RequestBody::Ping,
            "stats" => RequestBody::Stats,
            "shutdown" => RequestBody::Shutdown,
            "run" => RequestBody::Run {
                jobs: f.batch("jobs", JobSpec::from_json)?,
                deadline_ms: f.deadline()?,
            },
            "authenticate" => RequestBody::Authenticate {
                job: f.take("job").map_or(Ok(JobSpec::default()), JobSpec::from_json)?,
                deadline_ms: f.deadline()?,
            },
            "detect" => RequestBody::Detect {
                jobs: f.batch("jobs", DetectSpec::from_json)?,
                deadline_ms: f.deadline()?,
            },
            "sanitize" => RequestBody::Sanitize {
                jobs: f.batch("jobs", SanitizeSpec::from_json)?,
                deadline_ms: f.deadline()?,
            },
            other => return Err(format!("unknown request kind `{other}`")),
        };
        f.finish()?;
        Ok(Request { id, body })
    }

    /// Renders the request to frame-payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        self.to_json().render().into_bytes()
    }

    /// Parses frame-payload bytes into a request.
    ///
    /// # Errors
    ///
    /// Invalid UTF-8, invalid JSON, or a malformed field.
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("frame is not UTF-8: {e}"))?;
        Request::from_json(parse_json(text)?)
    }
}

/// Typed rejection classes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded job queue was at capacity; retry later.
    Overloaded,
    /// The daemon is draining and admits no new jobs.
    ShuttingDown,
    /// The request could not be decoded or named unknown inputs.
    Malformed,
    /// The request is understood but this peer may not issue it —
    /// `shutdown` from a non-local connection without
    /// `allow_remote_shutdown`.
    Forbidden,
    /// The pipeline itself failed (or a deadline expired mid-request);
    /// the message carries the typed pipeline error's text.
    Job,
    /// The worker processing this job died (a panic); only this job is
    /// affected — the worker is respawned and the queue keeps draining.
    /// Submission is idempotent and content-addressed, so clients may
    /// safely retry.
    Internal,
    /// A codec negotiation the daemon cannot honor — a malformed binary
    /// hello, or an unsupported binary version. Always answered in JSON;
    /// the connection survives and stays JSON.
    BadCodec,
}

impl ServiceError {
    /// Stable lowercase wire name.
    pub fn name(&self) -> &'static str {
        match self {
            ServiceError::Overloaded => "overloaded",
            ServiceError::ShuttingDown => "shutting_down",
            ServiceError::Malformed => "malformed",
            ServiceError::Forbidden => "forbidden",
            ServiceError::Job => "job",
            ServiceError::Internal => "internal",
            ServiceError::BadCodec => "bad_codec",
        }
    }

    /// Parses a wire name back to the class.
    ///
    /// # Errors
    ///
    /// The unknown name.
    pub fn from_name(name: &str) -> Result<ServiceError, String> {
        match name {
            "overloaded" => Ok(ServiceError::Overloaded),
            "shutting_down" => Ok(ServiceError::ShuttingDown),
            "malformed" => Ok(ServiceError::Malformed),
            "forbidden" => Ok(ServiceError::Forbidden),
            "job" => Ok(ServiceError::Job),
            "internal" => Ok(ServiceError::Internal),
            "bad_codec" => Ok(ServiceError::BadCodec),
            other => Err(format!("unknown error class `{other}`")),
        }
    }
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `ping`.
    Pong {
        /// Echoed request id.
        id: u64,
    },
    /// Answer to `stats`: one serialized metrics snapshot.
    Stats {
        /// Echoed request id.
        id: u64,
        /// The snapshot object ([`obfuscade::metrics::MetricsSnapshot::to_json`]).
        metrics: Json,
    },
    /// Answer to `shutdown`, sent after the drain completes.
    Bye {
        /// Echoed request id.
        id: u64,
        /// Total job requests the daemon completed over its lifetime.
        completed: u64,
    },
    /// Answer to `run`: one encoded outcome per job, in request order.
    Results {
        /// Echoed request id.
        id: u64,
        /// Encoded outcomes ([`encode_outcome`]).
        results: Vec<Json>,
    },
    /// Answer to `authenticate`.
    Verdict {
        /// Echoed request id.
        id: u64,
        /// `genuine` or `counterfeit`.
        verdict: String,
        /// Measured cold-joint area (mm²).
        cold_joint_mm2: f64,
        /// Measured internal void volume (mm³).
        void_mm3: f64,
    },
    /// Answer to `detect`: one encoded outcome per detection job, in
    /// request order. Each entry is `{"ok": <DetectionReport JSON>}` or
    /// `{"err": {...}}` ([`encode_detect_outcome`]).
    Detections {
        /// Echoed request id.
        id: u64,
        /// Encoded detection outcomes.
        reports: Vec<Json>,
    },
    /// Answer to `sanitize`: one encoded outcome per job, in request
    /// order ([`encode_sanitize_outcome`]).
    Sanitized {
        /// Echoed request id.
        id: u64,
        /// Encoded sanitize outcomes.
        reports: Vec<Json>,
    },
    /// Typed failure.
    Error {
        /// Echoed request id (0 when the request id was unreadable).
        id: u64,
        /// Rejection class.
        error: ServiceError,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Pong { id }
            | Response::Stats { id, .. }
            | Response::Bye { id, .. }
            | Response::Results { id, .. }
            | Response::Verdict { id, .. }
            | Response::Detections { id, .. }
            | Response::Sanitized { id, .. }
            | Response::Error { id, .. } => *id,
        }
    }

    /// The response as a JSON object: [`Response::into_json`] on a copy.
    pub fn to_json(&self) -> Json {
        self.clone().into_json()
    }

    /// The response as a JSON object, moving the result and report arrays
    /// and the metrics tree into it instead of copying them.
    pub fn into_json(self) -> Json {
        let mut fields = vec![("id".to_string(), Json::u64(self.id()))];
        match self {
            Response::Pong { .. } => fields.push(("kind".into(), Json::str("pong"))),
            Response::Stats { metrics, .. } => {
                fields.push(("kind".into(), Json::str("stats")));
                fields.push(("metrics".into(), metrics));
            }
            Response::Bye { completed, .. } => {
                fields.push(("kind".into(), Json::str("bye")));
                fields.push(("completed".into(), Json::u64(completed)));
            }
            Response::Results { results, .. } => {
                fields.push(("kind".into(), Json::str("results")));
                fields.push(("results".into(), Json::Array(results)));
            }
            Response::Verdict { verdict, cold_joint_mm2, void_mm3, .. } => {
                fields.push(("kind".into(), Json::str("verdict")));
                fields.push(("verdict".into(), Json::str(verdict)));
                fields.push(("cold_joint_mm2".into(), Json::Number(cold_joint_mm2)));
                fields.push(("void_mm3".into(), Json::Number(void_mm3)));
            }
            Response::Detections { reports, .. } => {
                fields.push(("kind".into(), Json::str("detections")));
                fields.push(("reports".into(), Json::Array(reports)));
            }
            Response::Sanitized { reports, .. } => {
                fields.push(("kind".into(), Json::str("sanitized")));
                fields.push(("reports".into(), Json::Array(reports)));
            }
            Response::Error { error, message, .. } => {
                fields.push(("kind".into(), Json::str("error")));
                fields.push(("error".into(), Json::str(error.name())));
                fields.push(("message".into(), Json::str(message)));
            }
        }
        Json::Object(fields)
    }

    /// Decodes a response from its JSON value, moving the result and
    /// report arrays out of it.
    ///
    /// # Errors
    ///
    /// A description of the first malformed, repeated or unknown field.
    pub fn from_json(v: Json) -> Result<Response, String> {
        let mut f = Fields::new(v, "response")?;
        let (id, kind) = f.envelope()?;
        let response = match kind.as_str() {
            "pong" => Response::Pong { id },
            "stats" => {
                Response::Stats { id, metrics: f.take("metrics").ok_or("missing `metrics`")? }
            }
            "bye" => Response::Bye {
                id,
                completed: f.u64("completed")?.ok_or("missing integer `completed`")?,
            },
            "results" => Response::Results { id, results: f.array("results")? },
            "verdict" => Response::Verdict {
                id,
                verdict: f.string("verdict")?.ok_or("missing string `verdict`")?,
                cold_joint_mm2: f.number("cold_joint_mm2")?,
                void_mm3: f.number("void_mm3")?,
            },
            "detections" => Response::Detections { id, reports: f.array("reports")? },
            "sanitized" => Response::Sanitized { id, reports: f.array("reports")? },
            "error" => {
                let class = f.string("error")?.ok_or("missing string `error`")?;
                let error = ServiceError::from_name(&class)?;
                Response::Error { id, error, message: f.string("message")?.unwrap_or_default() }
            }
            other => return Err(format!("unknown response kind `{other}`")),
        };
        f.finish()?;
        Ok(response)
    }

    /// Renders the response to frame-payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        self.to_json().render().into_bytes()
    }

    /// Parses frame-payload bytes into a response.
    ///
    /// # Errors
    ///
    /// Invalid UTF-8, invalid JSON, or a malformed field.
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("frame is not UTF-8: {e}"))?;
        Response::from_json(parse_json(text)?)
    }
}

/// Encodes one pipeline outcome as JSON — the canonical result shape both
/// the daemon and the in-process reference use, so byte equality of the
/// encodings is exactly value equality of every field encoded.
pub fn encode_outcome(outcome: &Result<PipelineOutput, PipelineError>) -> Json {
    match outcome {
        Ok(o) => {
            let tensile = match &o.tensile {
                None => Json::Null,
                Some(t) => Json::Object(vec![
                    ("uts_mpa".into(), Json::Number(t.uts_mpa)),
                    ("young_gpa".into(), Json::Number(t.young_modulus_gpa)),
                    ("failure_strain".into(), Json::Number(t.failure_strain)),
                    ("toughness_kj_m3".into(), Json::Number(t.toughness_kj_m3)),
                    ("ruptured".into(), Json::Bool(t.ruptured)),
                ]),
            };
            Json::Object(vec![(
                "ok".into(),
                Json::Object(vec![
                    ("part".into(), Json::str(o.part_name.clone())),
                    ("triangles".into(), Json::u64(o.mesh_triangles as u64)),
                    ("stl_bytes".into(), Json::u64(o.stl_bytes)),
                    ("slice_layers".into(), Json::u64(o.slice_report.layers as u64)),
                    (
                        "discontinuous_layers".into(),
                        Json::u64(o.slice_report.discontinuous_layers as u64),
                    ),
                    ("model_mm".into(), Json::Number(o.toolpath.model_mm)),
                    ("support_mm".into(), Json::Number(o.toolpath.support_mm)),
                    ("time_s".into(), Json::Number(o.toolpath.time_s)),
                    ("weight_g".into(), Json::Number(o.printed.weight_g())),
                    ("void_mm3".into(), Json::Number(o.scan.internal_void_volume)),
                    ("cold_joint_mm2".into(), Json::Number(o.scan.cold_joint_area)),
                    (
                        "trapped_support".into(),
                        Json::u64(o.scan.internal_support_voxels as u64),
                    ),
                    ("joint_contact".into(), Json::Number(o.joint_contact)),
                    ("degraded".into(), Json::Bool(o.is_degraded())),
                    (
                        "diagnostics".into(),
                        Json::Array(
                            o.diagnostics.iter().map(|d| Json::str(d.to_string())).collect(),
                        ),
                    ),
                    ("tensile".into(), tensile),
                ]),
            )])
        }
        Err(e) => Json::Object(vec![(
            "err".into(),
            Json::Object(vec![
                ("stage".into(), Json::str(e.stage().name())),
                ("message".into(), Json::str(e.to_string())),
            ]),
        )]),
    }
}

/// Encodes one detection outcome as JSON — the same `{"ok": ...}` /
/// `{"err": {stage, message}}` envelope as [`encode_outcome`], wrapping
/// the report's canonical rendering, so byte equality of encodings is
/// value equality of reports.
pub fn encode_detect_outcome(
    outcome: &Result<obfuscade::DetectionReport, am_detect::DetectError>,
) -> Json {
    match outcome {
        Ok(report) => Json::Object(vec![("ok".into(), report.to_json())]),
        Err(e) => encode_detect_error(e),
    }
}

/// Encodes one sanitization outcome as JSON (see
/// [`encode_detect_outcome`]).
pub fn encode_sanitize_outcome(
    outcome: &Result<obfuscade::SanitizeReport, am_detect::DetectError>,
) -> Json {
    match outcome {
        Ok(report) => Json::Object(vec![("ok".into(), report.to_json())]),
        Err(e) => encode_detect_error(e),
    }
}

fn encode_detect_error(e: &am_detect::DetectError) -> Json {
    let stage = match e {
        am_detect::DetectError::Pipeline(p) => p.stage().name(),
        am_detect::DetectError::Config(_) => "detect",
    };
    Json::Object(vec![(
        "err".into(),
        Json::Object(vec![
            ("stage".into(), Json::str(stage)),
            ("message".into(), Json::str(e.to_string())),
        ]),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write empty");
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).expect("eof"), None);

        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(write_frame(&mut Vec::new(), &huge).is_err());
        // A corrupt length prefix is rejected before allocation.
        let mut bad = Cursor::new(0xffff_ffffu32.to_be_bytes().to_vec());
        assert!(read_frame(&mut bad).is_err());
        // EOF mid-frame is an error, not a clean close.
        let mut cut = Cursor::new(vec![0, 0, 0, 9, b'x']);
        assert!(read_frame(&mut cut).is_err());
    }

    #[test]
    fn requests_round_trip_through_the_wire_encoding() {
        let job = JobSpec {
            part: "bar".into(),
            tensile: true,
            faults: "void-stl".into(),
            layer: None,
            ..JobSpec::default()
        };
        for body in [
            RequestBody::Ping,
            RequestBody::Stats,
            RequestBody::Shutdown,
            RequestBody::Run { jobs: vec![job.clone(), JobSpec::default()], deadline_ms: Some(250) },
            RequestBody::Authenticate { job: job.clone(), deadline_ms: None },
            RequestBody::Detect {
                jobs: vec![
                    DetectSpec { job: job.clone(), quality: "room".into(), ..DetectSpec::default() },
                    DetectSpec::default(),
                ],
                deadline_ms: Some(900),
            },
            RequestBody::Sanitize {
                jobs: vec![SanitizeSpec { job, payload_seed: 99, payload_bits: 3 }],
                deadline_ms: None,
            },
        ] {
            let request = Request { id: 7, body };
            let decoded = Request::decode(&request.encode()).expect("decode");
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn responses_round_trip_through_the_wire_encoding() {
        for response in [
            Response::Pong { id: 1 },
            Response::Stats { id: 2, metrics: Json::Object(vec![("x".into(), Json::u64(3))]) },
            Response::Bye { id: 3, completed: 42 },
            Response::Results { id: 4, results: vec![Json::Null, Json::Bool(true)] },
            Response::Verdict {
                id: 5,
                verdict: "counterfeit".into(),
                cold_joint_mm2: 12.5,
                void_mm3: 0.25,
            },
            Response::Detections {
                id: 7,
                reports: vec![Json::Object(vec![("ok".into(), Json::Bool(true))])],
            },
            Response::Sanitized { id: 8, reports: vec![Json::Null] },
            Response::Error {
                id: 6,
                error: ServiceError::Overloaded,
                message: "queue full".into(),
            },
        ] {
            let decoded = Response::decode(&response.encode()).expect("decode");
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn job_spec_decoding_rejects_unknown_fields_and_values() {
        let spec = JobSpec::default();
        assert_eq!(JobSpec::from_json(spec.to_json()).expect("round trip"), spec);
        let bad = parse_json(r#"{"part":"prism","warp":9}"#).expect("parse");
        assert!(JobSpec::from_json(bad).expect_err("unknown field").contains("warp"));
        let bad = parse_json(r#"{"resolution":"ultra"}"#).expect("parse");
        assert!(JobSpec::from_json(bad).expect_err("bad resolution").contains("ultra"));
        let bad = parse_json(r#"{"layer":-1}"#).expect("parse");
        assert!(JobSpec::from_json(bad).is_err());
    }

    #[test]
    fn outcome_encoding_separates_ok_and_err() {
        let spec = JobSpec::default();
        let part = spec.build_part().expect("part");
        let output =
            obfuscade::run_pipeline(&part, &spec.plan()).expect("pipeline");
        let ok = encode_outcome(&Ok(output));
        assert!(ok.get("ok").and_then(|o| o.get("weight_g")).is_some());
        let err = encode_outcome(&Err(PipelineError::EmptyBuild { part: "ghost".into() }));
        let stage = err.get("err").and_then(|e| e.get("stage")).and_then(Json::as_str);
        assert!(stage.is_some(), "error encoding must carry a stage name");
    }
}
