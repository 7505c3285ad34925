//! Failure-scenario integration suite: scripted faults driven through
//! [`simkit::faults`] against the full simulated stack, with recovery
//! behaviour asserted through the middleware's own [`FailoverReport`].
//!
//! Every scenario runs across three fixed seeds and must behave the
//! same way on each — the fault schedules, radios, provisioning and
//! failover machinery are all deterministic.
#![deny(warnings)]

use contory::{
    CollectingClient, ContoryError, CxtItem, CxtValue, FactoryConfig, FailoverConfig, Mechanism,
    Trust,
};
use radio::Position;
use simkit::{FaultPlan, SimDuration, SimTime};
use testbed::{PhoneSetup, Testbed, TestbedPhone};
use std::rc::Rc;

const SEEDS: [u64; 3] = [11, 22, 33];

/// Keep a provider phone publishing a fresh `wind` item every `period`.
fn publish_wind(tb: &Testbed, provider: &Rc<TestbedPhone>, period: SimDuration) {
    provider.factory().register_cxt_server("app");
    let factory = provider.factory().clone();
    let sim = tb.sim.clone();
    tb.sim.schedule_repeating(period, move || {
        let _ = factory.publish_cxt_item(
            CxtItem::new("wind", CxtValue::quantity(11.0, "kn"), sim.now())
                .with_accuracy(0.5)
                .with_trust(Trust::Community),
            None,
        );
        true
    });
}

/// BT outage → WiFi takeover. A communicator runs a periodic ad hoc
/// query over Bluetooth; at t = 120 s its BT radio dies for good. The
/// middleware must detect the failure, fail over to the WiFi ad hoc
/// mechanism and keep the provisioning gap below the configured
/// silence-watchdog bound.
#[test]
fn bt_outage_fails_over_to_wifi_within_the_timeout_bound() {
    for seed in SEEDS {
        bt_outage_scenario(seed);
    }
}

fn bt_outage_scenario(seed: u64) {
    let tb = Testbed::with_seed(seed);
    let period = SimDuration::from_secs(10);
    let silence_periods = 5u32;
    let requester = tb.add_phone(PhoneSetup {
        factory: FactoryConfig {
            failover: FailoverConfig {
                max_retries: 1,
                silence_periods,
                ..FailoverConfig::default()
            },
            ..FactoryConfig::default()
        },
        ..PhoneSetup::nokia9500("req", Position::new(0.0, 0.0))
    });
    let provider = tb.add_phone(PhoneSetup::nokia9500("prov", Position::new(6.0, 0.0)));
    publish_wind(&tb, &provider, period);

    // Scripted, permanent BT failure on the requester at t = 120 s.
    let mut plan = FaultPlan::new(seed);
    plan.kill_at("bt:req", SimTime::from_secs(120));
    let injector = tb.install_faults(&plan);

    tb.sim.run_for(SimDuration::from_secs(5)); // WiFi joins settle
    let client = Rc::new(CollectingClient::new());
    let id = requester
        .submit(
            "SELECT wind FROM adHocNetwork(all,1) DURATION 20 min EVERY 10 sec",
            client.clone(),
        )
        .unwrap();
    assert_eq!(
        requester.factory().mechanism_of(id),
        Some(Mechanism::AdHocBt),
        "seed {seed}: one-hop ad hoc prefers BT"
    );

    tb.sim.run_until(SimTime::from_secs(115));
    let before_fault = client.items_for(id).len();
    assert!(before_fault > 0, "seed {seed}: BT items before the fault");

    tb.sim.run_until(SimTime::from_secs(400));
    assert_eq!(
        requester.factory().mechanism_of(id),
        Some(Mechanism::AdHocWifi),
        "seed {seed}: took over on WiFi"
    );
    assert!(
        client.items_for(id).len() > before_fault,
        "seed {seed}: items kept flowing after the takeover"
    );

    let report = requester.factory().monitor().failover_report(tb.sim.now());
    let row = report.get(id).expect("query tracked");
    assert!(row.failures >= 1, "seed {seed}: BT failure detected");
    assert!(
        row.mechanisms_tried.contains(&Mechanism::AdHocBt)
            && row.mechanisms_tried.contains(&Mechanism::AdHocWifi),
        "seed {seed}: failover trail {:?}",
        row.mechanisms_tried
    );
    // The acceptance bound: the provisioning gap stays below the
    // configured timeout bound (the silence watchdog's detection
    // horizon of `silence_periods` query periods).
    let timeout_bound = period * u64::from(silence_periods);
    assert!(
        row.gap_max <= timeout_bound,
        "seed {seed}: gap {:.1}s exceeds the {:.0}s timeout bound",
        row.gap_max.as_secs_f64(),
        timeout_bound.as_secs_f64()
    );
    assert_eq!(injector.transitions_applied(), 1, "seed {seed}: one kill edge");
}

/// Total blackout: every candidate mechanism is dead, so an on-demand
/// query must be rejected with [`ContoryError::AllMechanismsFailed`]
/// (synchronously when the failures cascade inside `submit`, otherwise
/// as a terminal error event on the client).
#[test]
fn total_blackout_terminates_on_demand_query_with_all_mechanisms_failed() {
    for seed in SEEDS {
        total_blackout_scenario(seed);
    }
}

fn total_blackout_scenario(seed: u64) {
    let tb = Testbed::with_seed(seed);
    // Nokia 6630, cell radio off, no WiFi, no internal sensors and
    // no neighbours: once BT dies there is nothing left.
    let phone = tb.add_phone(PhoneSetup {
        metered: false,
        ..PhoneSetup::nokia6630("solo", Position::new(0.0, 0.0))
    });
    let mut plan = FaultPlan::new(seed);
    plan.kill_at("bt:solo", SimTime::from_secs(1));
    tb.install_faults(&plan);
    tb.sim.run_for(SimDuration::from_secs(5));

    let client = Rc::new(CollectingClient::new());
    match phone.submit(
        "SELECT wind FROM adHocNetwork(all,1) DURATION 1 samples",
        client.clone(),
    ) {
        Err(e) => {
            assert!(
                matches!(e, ContoryError::AllMechanismsFailed { .. }),
                "seed {seed}: unexpected error {e}"
            );
            assert!(
                e.to_string().contains("all mechanisms failed"),
                "seed {seed}: {e}"
            );
        }
        Ok(_) => {
            // The BT failure surfaced asynchronously; the cascade
            // must still terminate the query with the same error.
            tb.sim.run_for(SimDuration::from_secs(120));
            assert!(
                client
                    .errors()
                    .iter()
                    .any(|m| m.contains("all mechanisms failed")),
                "seed {seed}: expected a terminal error, got {:?}",
                client.errors()
            );
        }
    }
    assert!(client.all_items().is_empty(), "seed {seed}: nothing delivered");
}

/// A *long-running* query under a temporary total blackout is not
/// terminated: it is suspended, excluded from active provisioning, and
/// revived by the recovery probe once the preferred mechanism returns.
#[test]
fn blackout_suspends_long_running_query_then_recovery_probe_revives_it() {
    for seed in SEEDS {
        blackout_suspend_scenario(seed);
    }
}

fn blackout_suspend_scenario(seed: u64) {
    let tb = Testbed::with_seed(seed);
    let requester = tb.add_phone(PhoneSetup {
        metered: false,
        factory: FactoryConfig {
            failover: FailoverConfig {
                max_retries: 1,
                silence_periods: 4,
                ..FailoverConfig::default()
            },
            ..FactoryConfig::default()
        },
        ..PhoneSetup::nokia6630("req", Position::new(0.0, 0.0))
    });
    let provider = tb.add_phone(PhoneSetup {
        metered: false,
        ..PhoneSetup::nokia6630("prov", Position::new(6.0, 0.0))
    });
    publish_wind(&tb, &provider, SimDuration::from_secs(10));

    // BT (the only viable mechanism: cell off, no WiFi) is dark
    // between t = 100 s and t = 250 s.
    let mut plan = FaultPlan::new(seed);
    plan.down_between(
        "bt:req",
        SimTime::from_secs(100),
        SimTime::from_secs(250),
    );
    tb.install_faults(&plan);

    tb.sim.run_for(SimDuration::from_secs(2));
    let client = Rc::new(CollectingClient::new());
    let id = requester
        .submit(
            "SELECT wind FROM adHocNetwork(all,1) DURATION 30 min EVERY 10 sec",
            client.clone(),
        )
        .unwrap();

    tb.sim.run_until(SimTime::from_secs(100));
    let before = client.items_for(id).len();
    assert!(before > 0, "seed {seed}: items before the blackout");

    // Mid-blackout: the query is suspended, not terminated.
    tb.sim.run_until(SimTime::from_secs(220));
    let report = requester.factory().monitor().failover_report(tb.sim.now());
    let row = report.get(id).expect("query tracked");
    assert!(row.suspensions >= 1, "seed {seed}: suspension recorded");
    assert!(row.suspended, "seed {seed}: suspended during the blackout");
    assert!(
        client.items_for(id).len() <= before + 1,
        "seed {seed}: at most one in-flight item after the link went down"
    );

    // Recovery: probes rediscover BT after t = 250 s.
    tb.sim.run_until(SimTime::from_secs(450));
    let report = requester.factory().monitor().failover_report(tb.sim.now());
    let row = report.get(id).expect("query tracked");
    assert!(!row.suspended, "seed {seed}: revived after the blackout");
    assert_eq!(
        requester.factory().mechanism_of(id),
        Some(Mechanism::AdHocBt),
        "seed {seed}: back on BT ad hoc provisioning"
    );
    assert!(
        client.items_for(id).len() > before,
        "seed {seed}: items resumed after recovery"
    );
}

/// Broker outage: an infrastructure query goes silent while the Fuego
/// broker is down. The silence watchdog detects it, the query ends up
/// suspended (no viable alternative), and provisioning resumes once the
/// broker is back.
#[test]
fn broker_outage_suspends_infra_query_and_resumes_after() {
    for seed in SEEDS {
        broker_outage_scenario(seed);
    }
}

fn broker_outage_scenario(seed: u64) {
    let tb = Testbed::with_seed(seed);
    tb.add_weather_station(
        "fmi-harmaja",
        Position::new(2_000.0, 1_000.0),
        &[sensors::EnvField::WindKnots],
        SimDuration::from_secs(20),
    );
    tb.sim.run_for(SimDuration::from_secs(40));
    let phone = tb.add_phone(PhoneSetup {
        cell_on: true,
        metered: false,
        factory: FactoryConfig {
            failover: FailoverConfig {
                max_retries: 0,
                silence_periods: 2,
                ..FailoverConfig::default()
            },
            // Probe lazily so the silence watchdog can exhaust the
            // (peer-less) BT fallback before the probe revives the
            // preferred mechanism — the query must visibly suspend.
            recovery_probe: SimDuration::from_secs(60),
            ..FactoryConfig::default()
        },
        ..PhoneSetup::nokia6630("sailor", Position::new(0.0, 0.0))
    });

    let mut plan = FaultPlan::new(seed);
    plan.down_between("broker", SimTime::from_secs(160), SimTime::from_secs(340));
    tb.install_faults(&plan);

    let client = Rc::new(CollectingClient::new());
    let id = phone
        .submit(
            "SELECT wind FROM extInfra DURATION 30 min EVERY 15 sec",
            client.clone(),
        )
        .unwrap();
    assert_eq!(phone.factory().mechanism_of(id), Some(Mechanism::Infra));

    tb.sim.run_until(SimTime::from_secs(155));
    let before = client.items_for(id).len();
    assert!(before > 0, "seed {seed}: infra items before the outage");

    // Deep in the outage nothing is delivered (the broker drops
    // every frame) and the watchdog has flagged the silence.
    tb.sim.run_until(SimTime::from_secs(340));
    let during = client.items_for(id).len();
    let report = phone.factory().monitor().failover_report(tb.sim.now());
    let row = report.get(id).expect("query tracked");
    assert!(row.failures >= 1, "seed {seed}: silence detected");
    assert!(
        row.suspensions >= 1,
        "seed {seed}: suspended while the broker was dark"
    );
    assert!(
        during <= before + 1,
        "seed {seed}: at most one in-flight item around the cut ({before} -> {during})"
    );

    // After the broker returns, the probe/reassign cycle restores
    // infrastructure provisioning.
    tb.sim.run_until(SimTime::from_secs(640));
    assert!(
        client.items_for(id).len() > during,
        "seed {seed}: infra items resumed after the outage"
    );
    assert_eq!(
        phone.factory().mechanism_of(id),
        Some(Mechanism::Infra),
        "seed {seed}: back on extInfra"
    );
}

/// Flapping BT link: exponential backoff keeps the middleware from
/// thrashing — the number of reassignments stays bounded by the number
/// of scripted down-edges, retries are exercised, and provisioning
/// still recovers once the link stabilises.
#[test]
fn flapping_link_backoff_bounds_reassignments() {
    for seed in SEEDS {
        flapping_link_scenario(seed);
    }
}

fn flapping_link_scenario(seed: u64) {
    let tb = Testbed::with_seed(seed);
    let requester = tb.add_phone(PhoneSetup {
        metered: false,
        factory: FactoryConfig {
            failover: FailoverConfig {
                max_retries: 2,
                silence_periods: 4,
                ..FailoverConfig::default()
            },
            ..FactoryConfig::default()
        },
        ..PhoneSetup::nokia6630("req", Position::new(0.0, 0.0))
    });
    let provider = tb.add_phone(PhoneSetup {
        metered: false,
        ..PhoneSetup::nokia6630("prov", Position::new(6.0, 0.0))
    });
    publish_wind(&tb, &provider, SimDuration::from_secs(10));

    let mut plan = FaultPlan::new(seed);
    plan.flap_random(
        "bt:req",
        SimTime::from_secs(60),
        SimTime::from_secs(360),
        SimDuration::from_secs(45),
        SimDuration::from_secs(10),
    );
    let downs = plan
        .edges("bt:req")
        .iter()
        .filter(|e| !e.up)
        .count();
    tb.install_faults(&plan);

    tb.sim.run_for(SimDuration::from_secs(2));
    let client = Rc::new(CollectingClient::new());
    let id = requester
        .submit(
            "SELECT wind FROM adHocNetwork(all,1) DURATION 30 min EVERY 10 sec",
            client.clone(),
        )
        .unwrap();

    tb.sim.run_until(SimTime::from_secs(600));
    let report = requester.factory().monitor().failover_report(tb.sim.now());
    let row = report.get(id).expect("query tracked");
    // Thrash bound: each scripted down-edge accounts for at most a
    // handful of reassignments (failover attempt, probe-driven
    // revival, possible re-failure on a short up-phase); backoff
    // retries absorb repeated failures instead of spawning fresh
    // reassignments.
    assert!(
        (row.switches as usize) <= 3 * downs + 3,
        "seed {seed}: {} switches for {downs} down-edges — thrashing",
        row.switches
    );
    if row.failures > row.switches {
        assert!(
            row.retries >= 1,
            "seed {seed}: repeated failures should exercise backoff retries"
        );
    }
    // The link is stable after t = 360 s: provisioning recovered.
    let end = client.items_for(id).len();
    tb.sim.run_until(SimTime::from_secs(700));
    assert!(
        client.items_for(id).len() > end,
        "seed {seed}: items flowing after the flapping stops"
    );
}
