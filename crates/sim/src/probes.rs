//! What a run reports to, and who may veto it.
//!
//! [`Probes`] bundles the four observability tiers every run entry point
//! feeds; [`SlotAudit`] is the per-slot view an external checker (the
//! oracle) sees through an [`AuditHook`], in the ideal, charged-transition
//! and chaos loops alike.

use owan_core::{Profiler, SlotPlan, Transfer};
use owan_obs::Recorder;
use owan_optical::FiberPlant;
use owan_scope::ScopeRecorder;
use owan_update::{NetworkDelta, UpdateParams, UpdatePlan};
use owan_why::WhyRecorder;

/// The observability tiers attached to one run. Every handle is cheap to
/// clone and inert when disabled, so a run under [`Probes::off`] takes the
/// same path and produces the same plans and metrics as any other probe
/// set. Enable tiers selectively with struct-update syntax:
/// `Probes { recorder: rec.clone(), ..Probes::off() }`.
#[derive(Clone, Default)]
pub struct Probes {
    /// Tier 1: counters, stage spans and per-slot telemetry (`owan-obs`).
    pub recorder: Recorder,
    /// Tier 2: transfer lifecycle, flight ring and causal timeline
    /// (`owan-scope`).
    pub scope: ScopeRecorder,
    /// Tier 3: the region profiler (`owan-prof`).
    pub prof: Profiler,
    /// Tier 4: per-transfer attribution and SLO monitors (`owan-why`).
    pub why: WhyRecorder,
}

impl Probes {
    /// Every tier disabled.
    pub fn off() -> Self {
        Probes::default()
    }
}

/// Everything an external checker needs to audit one slot: the world as
/// the controller believed it, the transfers it planned for, the plan it
/// targeted, and the update schedule into that plan. Returning an error
/// from the hook stops the run at that slot.
pub struct SlotAudit<'a> {
    /// Slot index.
    pub slot: usize,
    /// Slot start, seconds.
    pub now_s: f64,
    /// The plant the engine planned on (detection-delayed in chaos runs).
    pub believed_plant: &'a FiberPlant,
    /// Active transfers the slot planned for.
    pub transfers: &'a [Transfer],
    /// The target plan for the slot (engine output, or the chaos fallback).
    pub plan: &'a SlotPlan,
    /// The delta from the previous data-plane state into this plan
    /// (absent on the first slot).
    pub delta: Option<&'a NetworkDelta>,
    /// The scheduled update into this plan (absent on the first slot).
    pub update: Option<&'a UpdatePlan>,
    /// The update-scheduler parameters the run is using.
    pub params: UpdateParams,
    /// Slot length, seconds.
    pub slot_len_s: f64,
    /// True when a chaos slot degraded to the filtered previous topology.
    pub used_fallback: bool,
}

/// Per-slot audit hook type.
pub type AuditHook<'a> = dyn FnMut(&SlotAudit) -> Result<(), String> + 'a;
