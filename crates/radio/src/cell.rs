//! 2G/3G cellular model (GPRS/UMTS).
//!
//! Reproduces the extInfra numbers of the paper:
//!
//! - **Latency** is high and heavily variable: publishing an event over
//!   UMTS averaged 772.7 ms with a 158.9 ms confidence half-width, and a
//!   full request/response averaged 1473 ms ranging 703–2766 ms. We model
//!   uplink and downlink legs as log-normal draws.
//! - **Energy**: opening the UMTS connection pushes the radio to
//!   ≈ 1000 mW, and the radio lingers in high-power states (DCH, then
//!   FACH) long after the transfer — which is why one on-demand item costs
//!   14.076 J (Table 2) and why batching items amortizes so well.
//! - **GSM idle**: with the radio on, paging peaks of 450–481 mW appear
//!   every 50–60 s (visible in paper Fig. 4 between queries).
//! - The paper also observed phones switching off during 2G/3G handover
//!   with an active UMTS connection; [`CellModem::trigger_handover`]
//!   injects that fault.

use crate::world::NodeId;
use phone::{Consumer, Milliwatts, Phone, PowerModel};
use simkit::{DetRng, Sim, SimDuration, SimTime};
use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// Opaque application payload (wire size passed separately).
pub type Payload = Rc<dyn Any>;

/// Errors surfaced by cellular operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellError {
    /// The GSM radio is off (or the phone is off).
    RadioOff,
    /// The phone dropped mid-transfer (e.g. handover bug).
    Dropped,
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::RadioOff => write!(f, "cellular radio is off"),
            CellError::Dropped => write!(f, "connection dropped"),
        }
    }
}

impl Error for CellError {}

/// Network mode the phone is camped on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CellMode {
    /// 2G only (the paper's workaround for the handover switch-off bug).
    TwoG,
    /// Dual 2G/3G (default; vulnerable to the handover bug).
    #[default]
    Dual,
}

/// Calibration constants for the cellular model.
#[derive(Clone, Debug)]
pub struct CellParams {
    /// Median uplink latency for an event-sized message (log-normal).
    pub uplink_median: SimDuration,
    /// Log-normal sigma of the uplink latency.
    pub uplink_sigma: f64,
    /// Median downlink latency.
    pub downlink_median: SimDuration,
    /// Log-normal sigma of the downlink latency.
    pub downlink_sigma: f64,
    /// Extra latency per kilobyte beyond the first (events are ~1.7 KB;
    /// larger batches pay this).
    pub per_extra_kb: SimDuration,
    /// Draw while a transfer is in flight (connection open, ~1000 mW).
    pub dch_mw: f64,
    /// How long the radio holds DCH after the last transfer.
    pub dch_tail: SimDuration,
    /// Draw during the DCH tail.
    pub dch_tail_mw: f64,
    /// How long the radio then lingers in FACH.
    pub fach_tail: SimDuration,
    /// Draw during the FACH tail.
    pub fach_mw: f64,
    /// GSM paging spike draw range (450–481 mW in Fig. 4).
    pub paging_mw: (f64, f64),
    /// Paging spike duration.
    pub paging_duration: SimDuration,
    /// Paging interval range (every 50–60 s in Fig. 4).
    pub paging_interval: (SimDuration, SimDuration),
}

impl Default for CellParams {
    fn default() -> Self {
        CellParams {
            uplink_median: SimDuration::from_millis(740),
            uplink_sigma: 0.30,
            downlink_median: SimDuration::from_millis(650),
            downlink_sigma: 0.35,
            per_extra_kb: SimDuration::from_millis(60),
            dch_mw: 1000.0,
            dch_tail: SimDuration::from_millis(7_000),
            dch_tail_mw: 950.0,
            fach_tail: SimDuration::from_millis(13_000),
            fach_mw: 460.0,
            paging_mw: (450.0, 481.0),
            paging_duration: SimDuration::from_millis(300),
            paging_interval: (SimDuration::from_secs(50), SimDuration::from_secs(60)),
        }
    }
}

type UplinkHandler = Rc<dyn Fn(NodeId, Payload)>;
type DownlinkHandler = Rc<dyn Fn(Payload)>;

struct ModemState {
    radio_on: bool,
    mode: CellMode,
    transfers_in_flight: u32,
    dch_until: SimTime,
    fach_until: SimTime,
    paging_spike_until: SimTime,
    on_receive: Option<DownlinkHandler>,
    power: PowerModel,
    phone: Phone,
    rng: DetRng,
}

impl ModemState {
    fn current_draw(&self, params: &CellParams, now: SimTime) -> f64 {
        if !self.radio_on || !self.phone.is_on() {
            return 0.0;
        }
        let mut draw: f64 = 0.0;
        if self.paging_spike_until > now {
            draw = draw.max(self.rng_free_paging_mw(params));
        }
        if self.fach_until > now {
            draw = draw.max(params.fach_mw);
        }
        if self.dch_until > now {
            draw = draw.max(params.dch_tail_mw);
        }
        if self.transfers_in_flight > 0 {
            draw = draw.max(params.dch_mw);
        }
        draw
    }

    /// Paging spikes draw somewhere in the 450–481 mW band; to keep
    /// `current_draw` pure we take the midpoint here — the actual spike
    /// amplitude is drawn when the spike is scheduled.
    fn rng_free_paging_mw(&self, params: &CellParams) -> f64 {
        (params.paging_mw.0 + params.paging_mw.1) / 2.0
    }
}

struct NetworkInner {
    sim: Sim,
    params: CellParams,
    modems: BTreeMap<NodeId, Rc<RefCell<ModemState>>>,
    uplink_handler: Option<UplinkHandler>,
    server_rng: DetRng,
}

/// The operator network plus the fixed-side endpoint (where the context
/// infrastructure lives).
#[derive(Clone)]
pub struct CellNetwork {
    inner: Rc<RefCell<NetworkInner>>,
}

impl CellNetwork {
    /// Creates a network.
    pub fn new(sim: &Sim, params: CellParams, seed: u64) -> Self {
        CellNetwork {
            inner: Rc::new(RefCell::new(NetworkInner {
                sim: sim.clone(),
                params,
                modems: BTreeMap::new(),
                uplink_handler: None,
                server_rng: DetRng::new(seed),
            })),
        }
    }

    /// Attaches a modem to `node`, radio initially off.
    ///
    /// # Panics
    ///
    /// Panics if the node already has a modem.
    pub fn attach(&self, node: NodeId, phone: &Phone, seed: u64) -> CellModem {
        let state = Rc::new(RefCell::new(ModemState {
            radio_on: false,
            mode: CellMode::default(),
            transfers_in_flight: 0,
            dch_until: SimTime::ZERO,
            fach_until: SimTime::ZERO,
            paging_spike_until: SimTime::ZERO,
            on_receive: None,
            power: phone.power().clone(),
            phone: phone.clone(),
            rng: DetRng::new(seed),
        }));
        let mut inner = self.inner.borrow_mut();
        let prev = inner.modems.insert(node, state);
        assert!(prev.is_none(), "{node} already has a modem");
        CellModem {
            network: self.clone(),
            node,
        }
    }

    /// Installs the fixed-side handler receiving every uplink message.
    pub fn on_uplink(&self, f: impl Fn(NodeId, Payload) + 'static) {
        self.inner.borrow_mut().uplink_handler = Some(Rc::new(f));
    }

    /// Sends `payload` down to a phone. Latency follows the downlink
    /// model; the phone's radio enters DCH for the delivery. Silently
    /// dropped if the phone's radio is off when the message would arrive
    /// (like a real push over a dead bearer).
    pub fn send_downlink(&self, node: NodeId, wire_bytes: usize, payload: Payload) {
        let (sim, latency) = {
            let mut inner = self.inner.borrow_mut();
            let params = inner.params.clone();
            let lat = draw_leg_latency(
                &mut inner.server_rng,
                params.downlink_median,
                params.downlink_sigma,
                params.per_extra_kb,
                wire_bytes,
            );
            (inner.sim.clone(), lat)
        };
        obskit::count("cell_downlinks", 1);
        obskit::count("cell_downlink_bytes", wire_bytes as u64);
        obskit::observe("cell_downlink_us", latency.as_micros());
        let span = obskit::start(
            obskit::Phase::Transfer,
            &format!("cell_downlink:{node}:{wire_bytes}B"),
            None,
            sim.now(),
        );
        let net = self.clone();
        sim.schedule_in(latency, move || {
            obskit::end(span, net.sim().now());
            let Some(state) = net.state_of(node) else {
                return;
            };
            let handler = {
                let s = state.borrow();
                if !(s.radio_on && s.phone.is_on()) {
                    return;
                }
                s.on_receive.clone()
            };
            let modem = CellModem {
                network: net.clone(),
                node,
            };
            modem.open_activity_window();
            if let Some(h) = handler {
                h(payload);
            }
        });
    }

    fn sim(&self) -> Sim {
        self.inner.borrow().sim.clone()
    }

    fn params(&self) -> CellParams {
        self.inner.borrow().params.clone()
    }

    fn state_of(&self, node: NodeId) -> Option<Rc<RefCell<ModemState>>> {
        self.inner.borrow().modems.get(&node).cloned()
    }
}

impl fmt::Debug for CellNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellNetwork")
            .field("modems", &self.inner.borrow().modems.len())
            .finish()
    }
}

fn draw_leg_latency(
    rng: &mut DetRng,
    median: SimDuration,
    sigma: f64,
    per_extra_kb: SimDuration,
    wire_bytes: usize,
) -> SimDuration {
    let base = rng.lognormal(median.as_secs_f64(), sigma);
    let extra_kb = (wire_bytes.saturating_sub(1_700)) as f64 / 1024.0;
    SimDuration::from_secs_f64(base) + per_extra_kb * extra_kb
}

/// One phone's cellular modem. Cloneable handle.
#[derive(Clone)]
pub struct CellModem {
    network: CellNetwork,
    node: NodeId,
}

impl CellModem {
    /// The node this modem belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn state(&self) -> Rc<RefCell<ModemState>> {
        self.network
            .state_of(self.node)
            // Attach is the only constructor, modems are never detached:
            // an absent entry is unreachable by construction.
            .expect("modem detached from network") // lint:allow(panic-reachable) attach-time invariant
    }

    fn refresh_power(&self) {
        let params = self.network.params();
        let now = self.network.sim().now();
        let state = self.state();
        let (draw, power) = {
            let s = state.borrow();
            (s.current_draw(&params, now), s.power.clone())
        };
        power.set(Consumer::CellRadio, Milliwatts(draw));
    }

    fn refresh_power_at(&self, t: SimTime) {
        let me = self.clone();
        self.network.sim().schedule_at(t, move || me.refresh_power());
    }

    /// Turns the GSM radio on or off. While on (and idle) the periodic
    /// paging spikes of Fig. 4 appear in the power trace.
    pub fn set_radio(&self, on: bool) {
        {
            let state = self.state();
            let mut s = state.borrow_mut();
            s.radio_on = on;
            if !on {
                s.transfers_in_flight = 0;
                s.dch_until = SimTime::ZERO;
                s.fach_until = SimTime::ZERO;
                s.paging_spike_until = SimTime::ZERO;
            }
        }
        self.refresh_power();
        if on {
            self.schedule_next_paging();
        }
    }

    /// True if the radio is on and the phone is up.
    pub fn is_on(&self) -> bool {
        let state = self.state();
        let s = state.borrow();
        s.radio_on && s.phone.is_on()
    }

    /// Selects 2G-only or dual mode.
    pub fn set_mode(&self, mode: CellMode) {
        self.state().borrow_mut().mode = mode;
    }

    /// Current network mode.
    pub fn mode(&self) -> CellMode {
        self.state().borrow().mode
    }

    /// Installs the downlink receive handler.
    pub fn on_receive(&self, f: impl Fn(Payload) + 'static) {
        self.state().borrow_mut().on_receive = Some(Rc::new(f));
    }

    fn schedule_next_paging(&self) {
        let params = self.network.params();
        let (interval, spike_mw) = {
            let state = self.state();
            let mut s = state.borrow_mut();
            if !s.radio_on {
                return;
            }
            let lo = params.paging_interval.0.as_secs_f64();
            let hi = params.paging_interval.1.as_secs_f64();
            let interval = SimDuration::from_secs_f64(s.rng.range_f64(lo, hi));
            let spike = s.rng.range_f64(params.paging_mw.0, params.paging_mw.1);
            (interval, spike)
        };
        let me = self.clone();
        self.network.sim().schedule_in(interval, move || {
            let params = me.network.params();
            let busy = {
                let state = me.state();
                let s = state.borrow();
                if !(s.radio_on && s.phone.is_on()) {
                    return; // stop the paging loop; restarted by set_radio
                }
                s.transfers_in_flight > 0 || s.dch_until > me.network.sim().now()
            };
            if !busy {
                let until = me.network.sim().now() + params.paging_duration;
                me.state().borrow_mut().paging_spike_until = until;
                // Record the actual spike amplitude directly.
                let power = me.state().borrow().power.clone();
                power.set(Consumer::CellRadio, Milliwatts(spike_mw));
                me.refresh_power_at(until);
            }
            me.schedule_next_paging();
        });
    }

    /// Opens (or extends) the DCH/FACH activity window around a transfer.
    /// This is the RRC-like state transition the energy model hinges on:
    /// DCH tail, then FACH tail, then idle.
    fn open_activity_window(&self) {
        let params = self.network.params();
        let now = self.network.sim().now();
        let was_open = {
            let state = self.state();
            let s = state.borrow();
            s.fach_until > now
        };
        let (dch_until, fach_until) = {
            let state = self.state();
            let mut s = state.borrow_mut();
            s.dch_until = now + params.dch_tail;
            s.fach_until = s.dch_until + params.fach_tail;
            (s.dch_until, s.fach_until)
        };
        obskit::count(
            if was_open {
                "cell_rrc_extensions"
            } else {
                "cell_rrc_promotions"
            },
            1,
        );
        obskit::event(
            obskit::Phase::Rrc,
            &format!("dch:{}", self.node),
            None,
            now,
        );
        obskit::gauge(
            "cell_rrc_tail_s",
            fach_until.since(now).as_secs_f64(),
        );
        self.refresh_power();
        self.refresh_power_at(dch_until);
        self.refresh_power_at(fach_until);
    }

    /// Sends an event-encapsulated message up to the infrastructure.
    /// The callback fires when the fixed side has received it (one uplink
    /// leg, Table 1's `publishCxtItem` over UMTS).
    ///
    /// # Errors
    ///
    /// The callback receives [`CellError::RadioOff`] if the radio is off,
    /// or [`CellError::Dropped`] if the phone dies mid-transfer.
    pub fn send_event(
        &self,
        wire_bytes: usize,
        payload: Payload,
        cb: impl FnOnce(Result<(), CellError>) + 'static,
    ) {
        let sim = self.network.sim();
        if !self.is_on() {
            sim.schedule_in(SimDuration::ZERO, move || cb(Err(CellError::RadioOff)));
            return;
        }
        let params = self.network.params();
        let latency = {
            let state = self.state();
            let mut s = state.borrow_mut();
            s.transfers_in_flight += 1;
            draw_leg_latency(
                &mut s.rng,
                params.uplink_median,
                params.uplink_sigma,
                params.per_extra_kb,
                wire_bytes,
            )
        };
        self.refresh_power();
        obskit::count("cell_uplinks", 1);
        obskit::count("cell_uplink_bytes", wire_bytes as u64);
        obskit::observe("cell_uplink_us", latency.as_micros());
        let span = obskit::start(
            obskit::Phase::Transfer,
            &format!("cell_uplink:{}:{}B", self.node, wire_bytes),
            None,
            sim.now(),
        );
        let me = self.clone();
        sim.schedule_in(latency, move || {
            obskit::end(span, me.network.sim().now());
            {
                let state = me.state();
                let mut s = state.borrow_mut();
                s.transfers_in_flight = s.transfers_in_flight.saturating_sub(1);
            }
            me.open_activity_window();
            if !me.is_on() {
                obskit::count("cell_uplink_failures", 1);
                cb(Err(CellError::Dropped));
                return;
            }
            let handler = me.network.inner.borrow().uplink_handler.clone();
            if let Some(h) = handler {
                h(me.node, payload);
            }
            cb(Ok(()));
        });
    }

    /// Injects the 2G/3G handover fault the paper observed: in dual mode
    /// with an active UMTS connection, the phone switches off. Returns
    /// `true` if the fault fired.
    pub fn trigger_handover(&self) -> bool {
        let (fires, phone) = {
            let state = self.state();
            let s = state.borrow();
            let active = s.transfers_in_flight > 0
                || s.dch_until > self.network.sim().now();
            (
                s.radio_on && s.phone.is_on() && s.mode == CellMode::Dual && active,
                s.phone.clone(),
            )
        };
        if fires {
            phone.power_off();
            self.refresh_power();
        }
        fires
    }
}

impl fmt::Debug for CellModem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellModem")
            .field("node", &self.node)
            .field("on", &self.is_on())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phone::{Phone, PhoneConfig};
    use simkit::stats::Summary;
    use std::cell::Cell;

    struct Rig {
        sim: Sim,
        net: CellNetwork,
    }

    fn rig() -> Rig {
        let sim = Sim::new();
        let net = CellNetwork::new(&sim, CellParams::default(), 7);
        Rig { sim, net }
    }

    fn modem(r: &Rig, id: u32) -> (Phone, CellModem) {
        let phone = Phone::new(&r.sim, PhoneConfig::default());
        let m = r.net.attach(NodeId(id), &phone, id as u64 + 100);
        m.set_radio(true);
        (phone, m)
    }

    #[test]
    fn uplink_latency_matches_table1() {
        // publishCxtItem over UMTS: 772.7 ms mean, high variance.
        let r = rig();
        let (_phone, m) = modem(&r, 0);
        r.net.on_uplink(|_from, _p| {});
        let mut lat = Summary::new();
        for _ in 0..200 {
            let t0 = r.sim.now();
            let done = Rc::new(Cell::new(false));
            let d = done.clone();
            m.send_event(1_696, Rc::new(()), move |res| {
                res.unwrap();
                d.set(true);
            });
            while !done.get() {
                assert!(r.sim.step());
            }
            lat.push((r.sim.now() - t0).as_millis_f64());
            // drain tails between sends
            r.sim.run_for(SimDuration::from_secs(30));
        }
        let mean = lat.mean();
        assert!((680.0..880.0).contains(&mean), "uplink mean {mean} ms");
        assert!(lat.std_dev() > 120.0, "UMTS variance should be large");
    }

    #[test]
    fn round_trip_latency_matches_table1_range() {
        // getCxtItem over UMTS: ~1473 ms mean, observed range 703–2766 ms.
        let r = rig();
        let (_phone, m) = modem(&r, 0);
        // Echo infrastructure.
        let net = r.net.clone();
        r.net.on_uplink(move |from, _p| net.send_downlink(from, 1_696, Rc::new(())));
        let mut lat = Summary::new();
        for _ in 0..200 {
            let t0 = r.sim.now();
            let done = Rc::new(Cell::new(false));
            let d = done.clone();
            m.on_receive(move |_p| d.set(true));
            m.send_event(1_696, Rc::new(()), |res| res.unwrap());
            while !done.get() {
                assert!(r.sim.step(), "no echo received");
            }
            lat.push((r.sim.now() - t0).as_millis_f64());
            r.sim.run_for(SimDuration::from_secs(30));
        }
        let mean = lat.mean();
        assert!((1300.0..1650.0).contains(&mean), "RTT mean {mean} ms");
        assert!(lat.min() > 500.0, "min {}", lat.min());
        assert!(lat.max() < 3600.0, "max {}", lat.max());
        assert!(lat.max() > 1900.0, "heavy tail expected, max {}", lat.max());
    }

    #[test]
    fn ondemand_energy_matches_table2() {
        // 14.076 J per on-demand item: transfer at ~1 W plus DCH/FACH tails.
        let r = rig();
        let (phone, m) = modem(&r, 0);
        let net = r.net.clone();
        r.net.on_uplink(move |from, _p| net.send_downlink(from, 1_696, Rc::new(())));
        let mut per_item = Summary::new();
        for _ in 0..20 {
            let t0 = r.sim.now();
            m.send_event(1_696, Rc::new(()), |res| res.unwrap());
            // run past all tails
            r.sim.run_for(SimDuration::from_secs(60));
            let e = phone.power().energy_between(t0, r.sim.now()).as_joules();
            let baseline = 5.75 * 60.0 / 1000.0;
            per_item.push(e - baseline);
        }
        let mean = per_item.mean();
        assert!(
            (12.5..15.5).contains(&mean),
            "on-demand UMTS energy {mean} J, expected ~14.1"
        );
    }

    #[test]
    fn paging_spikes_while_idle() {
        let r = rig();
        let (phone, _m) = modem(&r, 0);
        r.sim.run_for(SimDuration::from_secs(300));
        let trace = phone.power().trace_snapshot();
        // count samples in the 450-481 band (+5.75 baseline)
        let spikes = trace
            .iter()
            .filter(|&(_, v)| (450.0..490.0).contains(&(v - 5.75)))
            .count();
        // every 50-60 s over 300 s -> ~5-6 spikes
        assert!((4..=7).contains(&spikes), "saw {spikes} paging spikes");
        let peak = trace.max_value().unwrap();
        assert!((450.0..490.0).contains(&(peak - 5.75)), "peak {peak}");
    }

    #[test]
    fn radio_off_rejects_send() {
        let r = rig();
        let (_phone, m) = modem(&r, 0);
        m.set_radio(false);
        let got = Rc::new(Cell::new(None));
        let g = got.clone();
        m.send_event(100, Rc::new(()), move |res| g.set(Some(res.unwrap_err())));
        r.sim.run_until_idle();
        assert_eq!(got.take(), Some(CellError::RadioOff));
    }

    #[test]
    fn downlink_to_dead_radio_is_dropped() {
        let r = rig();
        let (_phone, m) = modem(&r, 0);
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        m.on_receive(move |_p| g.set(true));
        m.set_radio(false);
        r.net.send_downlink(NodeId(0), 100, Rc::new(()));
        r.sim.run_until_idle();
        assert!(!got.get());
    }

    #[test]
    fn handover_bug_kills_dual_mode_phone_mid_transfer() {
        let r = rig();
        let (phone, m) = modem(&r, 0);
        r.net.on_uplink(|_f, _p| {});
        m.send_event(1_696, Rc::new(()), |_res| {});
        r.sim.run_for(SimDuration::from_millis(100));
        assert!(m.trigger_handover());
        assert!(!phone.is_on());
    }

    #[test]
    fn handover_in_2g_mode_is_harmless() {
        let r = rig();
        let (phone, m) = modem(&r, 0);
        m.set_mode(CellMode::TwoG);
        r.net.on_uplink(|_f, _p| {});
        m.send_event(1_696, Rc::new(()), |_res| {});
        r.sim.run_for(SimDuration::from_millis(100));
        assert!(!m.trigger_handover());
        assert!(phone.is_on());
    }

    #[test]
    fn batching_amortizes_energy() {
        // The paper: "Sending and retrieving larger groups of items in the
        // same time slot largely reduces the energy consumption per item."
        let r = rig();
        let (phone, m) = modem(&r, 0);
        r.net.on_uplink(|_f, _p| {});
        // one batched send of 10 items' worth of payload
        let t0 = r.sim.now();
        m.send_event(1_696 + 9 * 136, Rc::new(()), |res| res.unwrap());
        r.sim.run_for(SimDuration::from_secs(60));
        let batched = phone.power().energy_between(t0, r.sim.now()).as_joules();
        let per_item_batched = batched / 10.0;
        assert!(
            per_item_batched < 14.076 / 4.0,
            "batched per-item {per_item_batched} J should amortize"
        );
    }
}
