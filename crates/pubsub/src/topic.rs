//! Topics and wildcard filters.
//!
//! Grammar (MQTT-inspired): a topic is one or more non-empty segments
//! joined by `/`; segments of topics never contain `+`, `#` or
//! whitespace. A filter may use `+` for exactly one segment and `#` as
//! the final segment for the remaining subtree.

use std::fmt;

use crate::PubSubError;

fn valid_segment(seg: &str) -> bool {
    !seg.is_empty() && !seg.contains(['+', '#']) && !seg.chars().any(char::is_whitespace)
}

/// Single-pass byte-level topic check, semantically identical to
/// `text.split('/').all(valid_segment)`. ASCII text (the overwhelmingly
/// common case on the decode hot path) is judged in one scan; the first
/// non-ASCII byte falls back to the char-level walk, which knows about
/// Unicode whitespace.
fn topic_segments_ok(text: &str) -> bool {
    // One branch-free pass, accumulated bitwise so the compiler can
    // unroll: forbidden bytes, empty segments (a leading, doubled or
    // trailing '/' — the sentinel makes the leading case a double), and
    // non-ASCII detection all fold into two flags.
    let mut bad = false;
    let mut non_ascii = false;
    let mut prev = b'/';
    for &b in text.as_bytes() {
        bad |= matches!(b, b'+' | b'#' | b' ' | b'\t'..=b'\r') | ((prev == b'/') & (b == b'/'));
        non_ascii |= b >= 0x80;
        prev = b;
    }
    if non_ascii {
        // Non-ASCII whitespace needs the char-level walk.
        return text.split('/').all(valid_segment);
    }
    !(bad | (prev == b'/'))
}

/// A concrete topic, e.g. `district/d1/building/b7/temperature`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Topic {
    text: String,
}

impl Topic {
    /// Parses a topic.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::InvalidTopic`] for empty topics, empty
    /// segments, wildcards or whitespace.
    pub fn new(text: impl Into<String>) -> Result<Self, PubSubError> {
        let text = text.into();
        match Topic::validate(&text) {
            Ok(()) => Ok(Topic { text }),
            Err(reason) => Err(PubSubError::InvalidTopic {
                input: text,
                reason,
            }),
        }
    }

    /// Checks `text` against the topic grammar without allocating —
    /// shared by [`Topic::new`] and the zero-copy [`TopicRef::new`].
    pub(crate) fn validate(text: &str) -> Result<(), &'static str> {
        if text.is_empty() {
            return Err("empty topic");
        }
        if text.len() > 512 {
            return Err("topic longer than 512 bytes");
        }
        if !topic_segments_ok(text) {
            return Err("segments must be non-empty and free of '+', '#' and whitespace");
        }
        Ok(())
    }

    /// The topic text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The segments.
    pub(crate) fn segments(&self) -> impl Iterator<Item = &str> {
        self.text.split('/')
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl std::str::FromStr for Topic {
    type Err = PubSubError;
    fn from_str(s: &str) -> Result<Self, PubSubError> {
        Topic::new(s)
    }
}

/// A borrowed, validated topic: the zero-copy counterpart of [`Topic`].
///
/// Produced by the borrowed wire decoder
/// ([`PacketRef`](crate::wire::PacketRef)) as a view straight into the
/// receive buffer. Validation runs once at construction; materializing
/// an owned [`Topic`] via `TopicRef::to_topic` is the *only*
/// allocation on the hot publish path, and the broker calls it solely
/// where it must retain the topic (retained messages, bridge batches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicRef<'a> {
    text: &'a str,
}

impl<'a> TopicRef<'a> {
    /// Validates `text` as a topic without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::InvalidTopic`] under exactly the same
    /// grammar as [`Topic::new`].
    pub(crate) fn new(text: &'a str) -> Result<Self, PubSubError> {
        match Topic::validate(text) {
            Ok(()) => Ok(TopicRef { text }),
            Err(reason) => Err(PubSubError::InvalidTopic {
                input: text.to_owned(),
                reason,
            }),
        }
    }

    /// The topic text.
    pub(crate) fn as_str(self) -> &'a str {
        self.text
    }

    /// Materializes an owned [`Topic`], skipping re-validation.
    pub(crate) fn to_topic(self) -> Topic {
        Topic {
            text: self.text.to_owned(),
        }
    }
}

impl<'a> From<&'a Topic> for TopicRef<'a> {
    fn from(topic: &'a Topic) -> Self {
        TopicRef { text: &topic.text }
    }
}

impl PartialEq<Topic> for TopicRef<'_> {
    fn eq(&self, other: &Topic) -> bool {
        self.text == other.text
    }
}

impl fmt::Display for TopicRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

/// A subscription filter, e.g. `district/+/building/#`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicFilter {
    text: String,
}

impl TopicFilter {
    /// Parses a filter.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::InvalidFilter`] for empty filters, empty
    /// segments, a non-final `#`, or segments mixing wildcards with text.
    pub fn new(text: impl Into<String>) -> Result<Self, PubSubError> {
        let text = text.into();
        match TopicFilter::validate(&text) {
            Ok(()) => Ok(TopicFilter { text }),
            Err(reason) => Err(PubSubError::InvalidFilter {
                input: text,
                reason,
            }),
        }
    }

    /// Checks `text` against the filter grammar without allocating —
    /// shared by [`TopicFilter::new`] and [`TopicFilterRef::new`].
    pub(crate) fn validate(text: &str) -> Result<(), &'static str> {
        if text.is_empty() {
            return Err("empty filter");
        }
        if text.len() > 512 {
            return Err("filter longer than 512 bytes");
        }
        let mut segments = text.split('/').peekable();
        while let Some(seg) = segments.next() {
            match seg {
                "+" => {}
                "#" => {
                    if segments.peek().is_some() {
                        return Err("'#' must be the final segment");
                    }
                }
                other => {
                    if !valid_segment(other) {
                        return Err("segments must be non-empty, wildcard-free or exactly '+'/'#'");
                    }
                }
            }
        }
        Ok(())
    }

    /// The filter text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The segments.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.text.split('/')
    }

    /// Whether `topic` matches this filter.
    pub fn matches(&self, topic: &Topic) -> bool {
        let mut filter = self.text.split('/');
        let mut topic_segs = topic.segments();
        loop {
            match (filter.next(), topic_segs.next()) {
                (None, None) => return true,
                (Some("#"), _) => return true,
                (Some("+"), Some(_)) => {}
                (Some(f), Some(t)) if f == t => {}
                _ => return false,
            }
        }
    }
}

impl fmt::Display for TopicFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl std::str::FromStr for TopicFilter {
    type Err = PubSubError;
    fn from_str(s: &str) -> Result<Self, PubSubError> {
        TopicFilter::new(s)
    }
}

impl From<Topic> for TopicFilter {
    /// Every topic is a valid (wildcard-free) filter.
    fn from(topic: Topic) -> Self {
        TopicFilter { text: topic.text }
    }
}

/// A borrowed, validated filter: the zero-copy counterpart of
/// [`TopicFilter`], produced by the borrowed wire decoder for
/// subscription-control packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicFilterRef<'a> {
    text: &'a str,
}

impl<'a> TopicFilterRef<'a> {
    /// Validates `text` as a filter without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::InvalidFilter`] under exactly the same
    /// grammar as [`TopicFilter::new`].
    pub(crate) fn new(text: &'a str) -> Result<Self, PubSubError> {
        match TopicFilter::validate(text) {
            Ok(()) => Ok(TopicFilterRef { text }),
            Err(reason) => Err(PubSubError::InvalidFilter {
                input: text.to_owned(),
                reason,
            }),
        }
    }

    /// The filter text.
    pub(crate) fn as_str(self) -> &'a str {
        self.text
    }

    /// Materializes an owned [`TopicFilter`], skipping re-validation.
    pub(crate) fn to_filter(self) -> TopicFilter {
        TopicFilter {
            text: self.text.to_owned(),
        }
    }
}

impl<'a> From<&'a TopicFilter> for TopicFilterRef<'a> {
    fn from(filter: &'a TopicFilter) -> Self {
        TopicFilterRef { text: &filter.text }
    }
}

impl fmt::Display for TopicFilterRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

/// Typed builder/parser for the measurement topic grammar used across
/// the framework:
///
/// ```text
/// district/<district>/entity/<entity>/device/<device>/<quantity>
/// ```
///
/// Device proxies publish on these topics and the aggregation /
/// monitoring layers subscribe to them; keeping the grammar in one
/// place means producers and consumers cannot drift apart.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MeasurementTopic {
    /// District identifier segment.
    pub district: String,
    /// Entity (building / network) identifier segment.
    pub entity: String,
    /// Device identifier segment.
    pub device: String,
    /// Quantity name segment, e.g. `temperature`.
    pub quantity: String,
}

impl MeasurementTopic {
    /// Builds the typed topic from its segments.
    pub fn new(
        district: impl Into<String>,
        entity: impl Into<String>,
        device: impl Into<String>,
        quantity: impl Into<String>,
    ) -> Self {
        MeasurementTopic {
            district: district.into(),
            entity: entity.into(),
            device: device.into(),
            quantity: quantity.into(),
        }
    }

    /// Renders the concrete topic.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::InvalidTopic`] when any segment violates
    /// the topic grammar (empty, wildcard or whitespace).
    pub fn topic(&self) -> Result<Topic, PubSubError> {
        Topic::new(format!(
            "district/{}/entity/{}/device/{}/{}",
            self.district, self.entity, self.device, self.quantity
        ))
    }

    /// Parses a topic back into its typed form; `None` when the topic
    /// does not follow the measurement grammar.
    pub fn parse(topic: &Topic) -> Option<Self> {
        let segs: Vec<&str> = topic.segments().collect();
        match segs.as_slice() {
            ["district", district, "entity", entity, "device", device, quantity] => Some(
                MeasurementTopic::new(*district, *entity, *device, *quantity),
            ),
            _ => None,
        }
    }

    /// Filter matching every measurement published in `district`.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::InvalidFilter`] when `district` is not a
    /// valid segment.
    pub fn district_filter(district: &str) -> Result<TopicFilter, PubSubError> {
        TopicFilter::new(format!("district/{district}/entity/+/device/+/+"))
    }

    /// Filter matching every quantity published by one device in
    /// `district`, regardless of which entity it sits under.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::InvalidFilter`] when a segment is invalid.
    pub fn device_filter(district: &str, device: &str) -> Result<TopicFilter, PubSubError> {
        TopicFilter::new(format!("district/{district}/entity/+/device/{device}/#"))
    }
}

impl fmt::Display for MeasurementTopic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "district/{}/entity/{}/device/{}/{}",
            self.district, self.entity, self.device, self.quantity
        )
    }
}

/// The aggregation rollup topic grammar:
///
/// ```text
/// district/<district>/agg/district/<quantity>/<window_millis>
/// district/<district>/agg/entity/<entity>/<quantity>/<window_millis>
/// ```
///
/// Aggregators publish retained rollups on these topics so that late
/// subscribers immediately see the latest closed window.
#[derive(Debug)]
pub struct RollupTopic;

impl RollupTopic {
    /// Renders the concrete topic from borrowed segments (`entity` is
    /// `None` at district scope).
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::InvalidTopic`] when a segment violates the
    /// grammar or the window is not strictly positive.
    pub fn render(
        district: &str,
        entity: Option<&str>,
        quantity: &str,
        window_millis: i64,
    ) -> Result<Topic, PubSubError> {
        use fmt::Write;
        // The fixed words and a 20-digit window come to under 48 bytes.
        let mut text = String::with_capacity(
            48 + district.len() + entity.map_or(0, str::len) + quantity.len(),
        );
        match entity {
            None => write!(
                text,
                "district/{district}/agg/district/{quantity}/{window_millis}"
            ),
            Some(entity) => write!(
                text,
                "district/{district}/agg/entity/{entity}/{quantity}/{window_millis}"
            ),
        }
        .expect("writing to a String cannot fail");
        if window_millis <= 0 {
            return Err(PubSubError::InvalidTopic {
                input: text,
                reason: "rollup window must be strictly positive",
            });
        }
        Topic::new(text)
    }

    /// Filter matching every rollup published for `district`.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::InvalidFilter`] when `district` is not a
    /// valid segment.
    pub fn district_filter(district: &str) -> Result<TopicFilter, PubSubError> {
        TopicFilter::new(format!("district/{district}/agg/#"))
    }
}

/// A subscription trie mapping filters to subscriber values, answering
/// "who matches this topic" in time proportional to the topic depth
/// rather than the subscription count (ablation target of experiment E8).
#[derive(Debug, Clone)]
pub struct SubscriptionTrie<T> {
    root: TrieNode<T>,
    len: usize,
}

#[derive(Debug, Clone)]
struct TrieNode<T> {
    children: std::collections::HashMap<String, TrieNode<T>>,
    one_level: Option<Box<TrieNode<T>>>,
    subtree: Vec<T>,
    here: Vec<T>,
}

impl<T> Default for TrieNode<T> {
    fn default() -> Self {
        TrieNode {
            children: std::collections::HashMap::new(),
            one_level: None,
            subtree: Vec::new(),
            here: Vec::new(),
        }
    }
}

impl<T> SubscriptionTrie<T> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        SubscriptionTrie {
            root: TrieNode::default(),
            len: 0,
        }
    }

    /// Number of subscriptions.
    #[allow(clippy::len_without_is_empty)] // nothing asks whether it is empty
    pub fn len(&self) -> usize {
        self.len
    }

    /// Inserts a subscription.
    pub fn insert(&mut self, filter: &TopicFilter, value: T) {
        let mut node = &mut self.root;
        for seg in filter.segments() {
            match seg {
                "#" => {
                    node.subtree.push(value);
                    self.len += 1;
                    return;
                }
                "+" => {
                    node = node.one_level.get_or_insert_with(Default::default);
                }
                seg => {
                    node = node.children.entry(seg.to_owned()).or_default();
                }
            }
        }
        node.here.push(value);
        self.len += 1;
    }

    /// Removes every subscription under exactly `filter` whose value
    /// satisfies `predicate`; returns how many were removed.
    pub fn remove_where(
        &mut self,
        filter: &TopicFilter,
        mut predicate: impl FnMut(&T) -> bool,
    ) -> usize {
        let mut node = &mut self.root;
        for seg in filter.segments() {
            match seg {
                "#" => {
                    let before = node.subtree.len();
                    node.subtree.retain(|v| !predicate(v));
                    let removed = before - node.subtree.len();
                    self.len -= removed;
                    return removed;
                }
                "+" => match node.one_level.as_deref_mut() {
                    Some(next) => node = next,
                    None => return 0,
                },
                seg => match node.children.get_mut(seg) {
                    Some(next) => node = next,
                    None => return 0,
                },
            }
        }
        let before = node.here.len();
        node.here.retain(|v| !predicate(v));
        let removed = before - node.here.len();
        self.len -= removed;
        removed
    }

    /// Collects the values of every subscription matching `topic`.
    pub fn matches<'a>(&'a self, topic: &Topic) -> Vec<&'a T> {
        self.matches_str(topic.as_str())
    }

    /// Like [`SubscriptionTrie::matches`], but on raw topic text — the
    /// zero-copy wire path hands in borrowed topics without ever
    /// materializing a [`Topic`]. The caller guarantees `topic` is
    /// grammatically valid (segments of a validated [`TopicRef`]).
    pub fn matches_str<'a>(&'a self, topic: &str) -> Vec<&'a T> {
        let mut out = Vec::new();
        self.for_each_match(topic, |value| out.push(value));
        out
    }

    /// Visits the value of every subscription matching `topic`, in the
    /// order [`SubscriptionTrie::matches_str`] lists them, allocating
    /// nothing: the per-publish form of the match.
    pub fn for_each_match<'a>(&'a self, topic: &str, mut visit: impl FnMut(&'a T)) {
        walk(&self.root, topic.split('/'), &mut visit);
    }
}

impl<T> Default for SubscriptionTrie<T> {
    fn default() -> Self {
        SubscriptionTrie::new()
    }
}

fn walk<'a, T, F: FnMut(&'a T)>(
    node: &'a TrieNode<T>,
    mut rest: std::str::Split<'_, char>,
    visit: &mut F,
) {
    node.subtree.iter().for_each(&mut *visit);
    match rest.next() {
        None => node.here.iter().for_each(&mut *visit),
        Some(seg) => {
            if let Some(child) = node.children.get(seg) {
                walk(child, rest.clone(), visit);
            }
            if let Some(plus) = &node.one_level {
                walk(plus, rest, visit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Topic {
        Topic::new(s).unwrap()
    }

    fn f(s: &str) -> TopicFilter {
        TopicFilter::new(s).unwrap()
    }

    #[test]
    fn fast_segment_scan_agrees_with_reference_walk() {
        // The branch-free byte scan on the decode hot path must agree
        // with the segment-by-segment reference on every input,
        // including edge '/', wildcard, whitespace (ASCII and Unicode)
        // and control-character placements.
        let mut rng = simnet::rng::DeterministicRng::seed_from(0x70_71C);
        let alphabet: Vec<char> = "ab/+# \t\u{0}\u{1}\u{a0}\u{2028}é".chars().collect();
        for _ in 0..20_000 {
            let len = rng.next_bounded(12) as usize;
            let text: String = (0..len)
                .map(|_| alphabet[rng.next_bounded(alphabet.len() as u64) as usize])
                .collect();
            if text.is_empty() {
                continue;
            }
            assert_eq!(
                topic_segments_ok(&text),
                text.split('/').all(valid_segment),
                "scan and reference disagree on {text:?}"
            );
        }
    }

    #[test]
    fn topic_grammar() {
        assert!(Topic::new("a/b/c").is_ok());
        assert!(Topic::new("a").is_ok());
        for bad in ["", "/a", "a/", "a//b", "a/+/b", "a/#", "a b", "a\t"] {
            assert!(Topic::new(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn filter_grammar() {
        for ok in ["a/b", "+", "#", "a/+/c", "a/#", "+/+/#"] {
            assert!(TopicFilter::new(ok).is_ok(), "{ok:?}");
        }
        for bad in ["", "a/#/b", "#/a", "a+/b", "a/b#", "a//#", "a b/#"] {
            assert!(TopicFilter::new(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn matching_semantics() {
        let cases = [
            ("a/b/c", "a/b/c", true),
            ("a/b/c", "a/b", false),
            ("a/b", "a/b/c", false),
            ("a/+/c", "a/b/c", true),
            ("a/+/c", "a/b/d", false),
            ("a/#", "a/b/c", true),
            ("a/#", "a", true), // '#' also matches the parent level
            ("#", "anything/at/all", true),
            ("+", "one", true),
            ("+", "one/two", false),
            ("+/+/#", "a/b", true), // '#' covers the parent level too
            ("+/+/#", "a", false),
            ("+/+/#", "a/b/c/d", true),
        ];
        for (filter, topic, expected) in cases {
            assert_eq!(
                f(filter).matches(&t(topic)),
                expected,
                "{filter} vs {topic}"
            );
        }
    }

    #[test]
    fn topic_is_a_filter() {
        let filter: TopicFilter = t("a/b").into();
        assert!(filter.matches(&t("a/b")));
        assert!(!filter.matches(&t("a/c")));
    }

    #[test]
    fn trie_agrees_with_linear_matching() {
        let filters = [
            "district/+/building/+/temperature",
            "district/d1/#",
            "district/d2/#",
            "#",
            "district/d1/building/b1/power",
            "+/+/building/b2/#",
        ];
        let topics = [
            "district/d1/building/b1/temperature",
            "district/d1/building/b1/power",
            "district/d2/building/b2/co2",
            "other/x",
            "district/d1",
        ];
        let mut trie = SubscriptionTrie::new();
        for (i, text) in filters.iter().enumerate() {
            trie.insert(&f(text), i);
        }
        assert_eq!(trie.len(), filters.len());
        for topic in topics {
            let topic = t(topic);
            let mut from_trie: Vec<usize> = trie.matches(&topic).into_iter().copied().collect();
            let mut linear: Vec<usize> = filters
                .iter()
                .enumerate()
                .filter(|(_, text)| f(text).matches(&topic))
                .map(|(i, _)| i)
                .collect();
            from_trie.sort_unstable();
            linear.sort_unstable();
            assert_eq!(from_trie, linear, "{topic}");
        }
    }

    #[test]
    fn trie_remove() {
        let mut trie = SubscriptionTrie::new();
        trie.insert(&f("a/#"), 1);
        trie.insert(&f("a/+"), 2);
        trie.insert(&f("a/b"), 3);
        assert_eq!(trie.matches(&t("a/b")).len(), 3);
        assert_eq!(trie.remove_where(&f("a/+"), |&v| v == 2), 1);
        assert_eq!(
            trie.remove_where(&f("a/+"), |&v| v == 2),
            0,
            "double remove"
        );
        assert_eq!(trie.remove_where(&f("x/y"), |_| true), 0, "unknown filter");
        assert_eq!(trie.matches(&t("a/b")).len(), 2);
        assert_eq!(trie.len(), 2);
    }

    #[test]
    fn measurement_topic_round_trip() {
        let built = MeasurementTopic::new("d1", "b3", "dev-7", "temperature");
        let topic = built.topic().unwrap();
        assert_eq!(
            topic.as_str(),
            "district/d1/entity/b3/device/dev-7/temperature"
        );
        assert_eq!(MeasurementTopic::parse(&topic), Some(built.clone()));
        assert_eq!(built.to_string(), topic.as_str());

        // Filters match exactly the topics the builder produces.
        assert!(MeasurementTopic::district_filter("d1")
            .unwrap()
            .matches(&topic));
        assert!(!MeasurementTopic::district_filter("d2")
            .unwrap()
            .matches(&topic));
        assert!(MeasurementTopic::device_filter("d1", "dev-7")
            .unwrap()
            .matches(&topic));
        assert!(!MeasurementTopic::device_filter("d1", "dev-8")
            .unwrap()
            .matches(&topic));
    }

    #[test]
    fn measurement_topic_rejects_foreign_shapes() {
        for text in [
            "district/d1/entity/b3/device/dev-7", // missing quantity
            "district/d1/entity/b3/device/dev-7/temperature/extra",
            "district/d1/building/b3/device/dev-7/temperature",
            "district/d1/agg/district/temperature/60000",
            "other/d1/entity/b3/device/dev-7/temperature",
        ] {
            assert_eq!(MeasurementTopic::parse(&t(text)), None, "{text}");
        }
        // Invalid segments surface as grammar errors at build time.
        assert!(MeasurementTopic::new("d 1", "b", "dev", "q")
            .topic()
            .is_err());
    }

    #[test]
    fn rollup_topic_round_trip() {
        let topic = RollupTopic::render("d1", None, "temperature", 120_000).unwrap();
        assert_eq!(
            topic.as_str(),
            "district/d1/agg/district/temperature/120000"
        );

        let topic = RollupTopic::render("d1", Some("b3"), "power", 60_000).unwrap();
        assert_eq!(topic.as_str(), "district/d1/agg/entity/b3/power/60000");

        assert!(RollupTopic::district_filter("d1").unwrap().matches(&topic));
        assert!(!RollupTopic::district_filter("d2").unwrap().matches(&topic));
    }

    #[test]
    fn rollup_topic_rejects_foreign_shapes() {
        assert!(RollupTopic::render("d1", None, "temperature", 0).is_err());
        assert!(RollupTopic::render("d1", None, "temperature", -5).is_err());
        assert!(RollupTopic::render("d 1", None, "temperature", 60_000).is_err());
    }

    #[test]
    fn measurement_and_rollup_grammars_are_disjoint() {
        // An aggregator subscribed to raw measurements must never see
        // its own rollups echoed back, and vice versa.
        let measurement = MeasurementTopic::new("d1", "b3", "dev-7", "temperature")
            .topic()
            .unwrap();
        let rollup = RollupTopic::render("d1", Some("b3"), "temperature", 60_000).unwrap();
        assert!(!MeasurementTopic::district_filter("d1")
            .unwrap()
            .matches(&rollup));
        assert!(!RollupTopic::district_filter("d1")
            .unwrap()
            .matches(&measurement));
    }

    #[test]
    fn trie_duplicate_subscriptions_coexist() {
        let mut trie = SubscriptionTrie::new();
        trie.insert(&f("a/#"), 7);
        trie.insert(&f("a/#"), 7);
        assert_eq!(trie.matches(&t("a/b")).len(), 2);
        let mut first = true;
        trie.remove_where(&f("a/#"), |&v| v == 7 && std::mem::take(&mut first));
        assert_eq!(trie.matches(&t("a/b")).len(), 1);
    }
}
