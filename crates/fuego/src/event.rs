//! Event notifications.
//!
//! Everything that crosses the cellular link is wrapped in an XML event
//! notification. The paper measured the envelope at **1696 bytes** for a
//! context item or query; the header structure here (routing, QoS,
//! metadata, digest) reproduces that framing cost, which is what makes
//! UMTS provisioning pay off only when items are batched.

use crate::xml::XmlElement;
use simkit::SimTime;
use std::any::Any;
use std::fmt;
use std::rc::Rc;

/// Fuego protocol namespace (envelope boilerplate).
const NS: &str = "http://www.hiit.fi/fuego/core/event/2006";
const SCHEMA: &str = "http://www.hiit.fi/fuego/core/event/2006 fuego-event-2.1.xsd";
const BROKER_URI: &str = "fuego://broker.dynamos.hiit.fi:5222/events";

/// An XML-encoded event notification.
///
/// ```
/// use fuego::event::EventNotification;
/// use fuego::xml::XmlElement;
/// use simkit::SimTime;
///
/// let body = XmlElement::new("item").attr("type", "temperature").text("14.0");
/// let ev = EventNotification::new("cxt/temperature", "phone-1", body, SimTime::ZERO);
/// assert!(ev.wire_size() > 1000); // realistic envelope framing
/// ```
#[derive(Clone)]
pub struct EventNotification {
    /// Topic the event is published under.
    pub topic: String,
    /// Sender identity (client URI).
    pub sender: String,
    /// Sender-assigned sequence number.
    pub id: u64,
    /// Publication time.
    pub timestamp: SimTime,
    /// Application body.
    pub body: XmlElement,
    /// Structured fast-path payload for in-simulation consumers (not
    /// serialized; the XML body is the wire representation).
    pub payload: Option<Rc<dyn Any>>,
}

impl EventNotification {
    /// Creates a notification.
    pub fn new(
        topic: impl Into<String>,
        sender: impl Into<String>,
        body: XmlElement,
        timestamp: SimTime,
    ) -> Self {
        EventNotification {
            topic: topic.into(),
            sender: sender.into(),
            id: 0,
            timestamp,
            body,
            payload: None,
        }
    }

    /// Attaches a structured payload, builder style.
    pub fn with_payload(mut self, payload: Rc<dyn Any>) -> Self {
        self.payload = Some(payload);
        self
    }

    /// Sets the sequence number, builder style.
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = id;
        self
    }

    /// Builds the full XML envelope.
    pub fn to_envelope(&self) -> XmlElement {
        // A fake-but-plausible message digest: fixed-width hex derived
        // from cheap hashing, standing in for the integrity header real
        // deployments carry. Not `simkit::hash::fnv1a`: the multiplier
        // differs from the FNV prime, and the 1696 B envelope golden
        // pins these bytes.
        let digest = {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in self.body.to_xml().bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            format!("{h:016x}{:016x}{h:016x}{:016x}", h.rotate_left(17), h.rotate_right(23))
        };
        XmlElement::new("fg:notification")
            .attr("xmlns:fg", NS)
            .attr("xmlns:xsi", "http://www.w3.org/2001/XMLSchema-instance")
            .attr("xsi:schemaLocation", SCHEMA)
            .attr("id", self.id.to_string())
            .attr("version", "2.1")
            .child(
                XmlElement::new("fg:routing")
                    .child(
                        XmlElement::new("fg:sender")
                            .attr("uri", format!("fuego://{}/client", self.sender))
                            .attr("session", format!("s-{:08x}", self.id.wrapping_mul(2654435761))),
                    )
                    .child(
                        XmlElement::new("fg:broker")
                            .attr("uri", BROKER_URI)
                            .attr("hops", "1"),
                    )
                    .child(XmlElement::new("fg:topic").text(&self.topic))
                    .child(
                        XmlElement::new("fg:timestamp")
                            .attr("millis", self.timestamp.as_millis().to_string()),
                    )
                    .child(
                        XmlElement::new("fg:qos")
                            .attr("delivery", "at-least-once")
                            .attr("priority", "normal")
                            .attr("persistent", "false"),
                    )
                    .child(
                        XmlElement::new("fg:expires")
                            .attr("millis", (self.timestamp.as_millis() + 300_000).to_string()),
                    )
                    .child(
                        XmlElement::new("fg:sequence")
                            .attr("epoch", "1124000000000")
                            .attr("number", self.id.to_string())
                            .attr("ack-requested", "true"),
                    )
                    .child(
                        XmlElement::new("fg:trace")
                            .child(
                                XmlElement::new("fg:via")
                                    .attr("uri", "fuego://gprs-gw.operator.example/relay")
                                    .attr("at", self.timestamp.as_millis().to_string()),
                            )
                            .child(
                                XmlElement::new("fg:via")
                                    .attr("uri", BROKER_URI)
                                    .attr("at", (self.timestamp.as_millis() + 1).to_string()),
                            ),
                    ),
            )
            .child(
                XmlElement::new("fg:metadata")
                    .child(
                        XmlElement::new("fg:content-type")
                            .text("application/x-contory-cxtitem+xml"),
                    )
                    .child(XmlElement::new("fg:encoding").text("xebu/none"))
                    .child(XmlElement::new("fg:digest").attr("alg", "fnv64-4").text(&digest))
                    .child(
                        XmlElement::new("fg:security")
                            .child(
                                XmlElement::new("fg:signature")
                                    .attr("alg", "hmac-sha1")
                                    .attr("keyinfo", "dynamos-trial-2005")
                                    // The digest is fixed-width (64 hex chars), but take
                                    // the prefixes fallibly rather than risk a panic in
                                    // the provisioning path if the width ever changes.
                                    .text(format!(
                                        "{digest}{}",
                                        digest.get(..24).unwrap_or(digest.as_str())
                                    )),
                            )
                            .child(
                                XmlElement::new("fg:nonce")
                                    .text(digest.get(..32).unwrap_or(digest.as_str())),
                            ),
                    ),
            )
            .child(XmlElement::new("fg:body").child(self.body.clone()))
    }

    /// Serialized size of the envelope in bytes.
    pub fn wire_size(&self) -> usize {
        self.to_envelope().wire_size()
    }

    /// Reconstructs a notification from an envelope produced by
    /// [`EventNotification::to_envelope`]. The structured payload is lost
    /// (it never crosses the wire). Returns `None` if required envelope
    /// parts are missing.
    pub fn from_envelope(envelope: &XmlElement) -> Option<EventNotification> {
        let routing = envelope.find("fg:routing")?;
        let topic = routing.find("fg:topic")?.text_content().to_owned();
        let sender = routing
            .find("fg:sender")?
            .attribute("uri")?
            .strip_prefix("fuego://")?
            .strip_suffix("/client")?
            .to_owned();
        let millis: u64 = routing
            .find("fg:timestamp")?
            .attribute("millis")?
            .parse()
            .ok()?;
        let id: u64 = envelope.attribute("id")?.parse().ok()?;
        let body = envelope.find("fg:body")?.children.first()?.clone();
        Some(EventNotification {
            topic,
            sender,
            id,
            timestamp: SimTime::from_millis(millis),
            body,
            payload: None,
        })
    }
}

impl fmt::Debug for EventNotification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventNotification")
            .field("topic", &self.topic)
            .field("sender", &self.sender)
            .field("id", &self.id)
            .field("wire_size", &self.wire_size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn typical_item_body() -> XmlElement {
        // A context item body as Contory would encode it: type, value,
        // timestamp, source and the metadata fields of §4.1.
        XmlElement::new("cxtItem")
            .attr("type", "light")
            .attr("timestamp", "1123851807512")
            .attr("lifetime", "30000")
            .attr("source", "intSensor://nokia6630-352087/light0")
            .child(XmlElement::new("value").attr("unit", "lux").text("740.5"))
            .child(
                XmlElement::new("metadata")
                    .child(XmlElement::new("correctness").text("0.93"))
                    .child(XmlElement::new("precision").text("0.5"))
                    .child(XmlElement::new("accuracy").text("1.0"))
                    .child(XmlElement::new("completeness").text("1.0"))
                    .child(XmlElement::new("privacy").text("community"))
                    .child(XmlElement::new("trust").text("trusted")),
            )
    }

    #[test]
    fn typical_item_notification_is_about_1696_bytes() {
        let ev = EventNotification::new(
            "cxt/light",
            "nokia6630-352087",
            typical_item_body(),
            SimTime::from_millis(1_123_851_807),
        )
        .with_id(42);
        let size = ev.wire_size();
        // Paper: "event notifications whose size is 1696 bytes".
        assert!(
            (1500..=1900).contains(&size),
            "envelope size {size}, expected ≈1696"
        );
    }

    #[test]
    fn envelope_round_trips() {
        let ev = EventNotification::new(
            "cxt/temperature",
            "phone-9",
            XmlElement::new("item").text("x"),
            SimTime::from_millis(5_000),
        )
        .with_id(7);
        let env = ev.to_envelope();
        let back = EventNotification::from_envelope(&env).unwrap();
        assert_eq!(back.topic, "cxt/temperature");
        assert_eq!(back.sender, "phone-9");
        assert_eq!(back.id, 7);
        assert_eq!(back.timestamp, SimTime::from_millis(5_000));
        assert_eq!(back.body, ev.body);
    }

    #[test]
    fn payload_is_not_serialized() {
        let ev = EventNotification::new(
            "t",
            "s",
            XmlElement::new("b"),
            SimTime::ZERO,
        )
        .with_payload(Rc::new(123u32));
        let env = ev.to_envelope();
        let back = EventNotification::from_envelope(&env).unwrap();
        assert!(back.payload.is_none());
    }

    #[test]
    fn malformed_envelope_yields_none() {
        assert!(EventNotification::from_envelope(&XmlElement::new("nope")).is_none());
    }
}
