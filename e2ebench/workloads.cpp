// Workloads of the end-to-end verdict benchmark.
//
// Every workload drives whole user sessions through the simulated browser
// (browser::Browser tabs, page scripts from bf::cloud) with the BrowserFlow
// plug-in installed, over cloud::SimNetwork. The program under test sees
// only DOM edits, form submits and XHR sends; the benchmark judges each
// verdict from outside: the paragraph highlight, the HTTP status the page
// script saw, and the network log of what actually left the browser.
#include "workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>

#include "browser/browser.h"
#include "cloud/docs_backend.h"
#include "cloud/docs_client.h"
#include "cloud/form_backend.h"
#include "cloud/network.h"
#include "cloud/notes_client.h"
#include "cloud/wiki_client.h"
#include "core/plugin.h"
#include "corpus/datasets.h"
#include "corpus/revision_model.h"
#include "corpus/text_generator.h"
#include "flow/wal.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "sec/sensitive.h"
#include "text/winnower.h"
#include "util/clock.h"
#include "util/rng.h"

namespace e2e {
namespace {

using namespace bf;

/// A run measures a fixed number of events (Shape::eventsPerSecond times
/// --seconds), so every run on a seed reaches the same state whatever the
/// host's or the program's speed. The measured phase stops early only at
/// this safety cap, which a run reaches only on a host several times
/// slower than the one the shapes were sized on.
constexpr double kCapFactor = 3.0;
constexpr double kMaxMeasureSec = 120.0;

/// Planted-leak ground truth must be met at least this well; below it the
/// run fails its correctness check. The floor only catches gross breakage
/// (the end-to-end bound on leak_recall catches regressions): recall is
/// structurally below 1 here because generated prose shares many n-grams,
/// and a copy of a paragraph whose hashes older segments already own
/// scores below T_par (authoritative fingerprints, paper S4.3). Measured
/// recall is about 0.67 on docs_typing and 1.0 on paste_upload.
constexpr double kMinLeakRecall = 0.5;
constexpr double kMinFreshPassRate = 0.95;

const std::string kLibrary = "https://library.corp";
const std::string kHr = "https://hr.corp";
const std::string kLegal = "https://legal.corp";
const std::string kDocs = "https://docs.example";
const std::string kForum = "https://forum.example";
const std::string kNotes = "https://notes.example";

// ---- inputs ------------------------------------------------------------------

/// Generated e-books: rendered whole (for preloading) and per paragraph
/// (for planting copies). Generation is not part of set-up. The library
/// is the deployment's fixed data, the same on every run; --seed varies
/// the user sessions typed against it.
struct Corpus {
  std::vector<std::string> books;
  std::vector<std::vector<std::string>> paragraphs;
  std::vector<corpus::VersionedDoc> docs;
};

Corpus makeCorpus(std::size_t books) {
  corpus::EbooksConfig cfg = corpus::EbooksConfig::quickScale();
  cfg.books = books;
  corpus::EbooksDataset ds = corpus::buildEbooks(cfg);
  Corpus c;
  for (const corpus::VersionedDoc& book : ds.books) {
    c.books.push_back(sec::declassifyForTest(book.render()));
    std::vector<std::string> paras;
    for (const corpus::Paragraph& p : book.paragraphs) {
      paras.push_back(sec::declassifyForTest(p.render()));
    }
    c.paragraphs.push_back(std::move(paras));
  }
  c.docs = std::move(ds.books);
  return c;
}

/// A copy of `para` edited by the revision model at `strength`: words
/// tweaked and sentences inserted, never removed, so the copy still
/// discloses its source (the ground truth stays "leak").
std::string editedCopy(const corpus::Paragraph& para,
                       corpus::RevisionModel& model, double strength) {
  corpus::VersionedDoc doc;
  doc.id = "edit";
  doc.paragraphs = {para};
  corpus::VolatilityProfile profile;
  profile.minorEditProb = strength;
  profile.insertSentenceProb = strength / 2;
  model.evolve(doc, profile);
  return sec::declassifyForTest(doc.render());
}

std::string joined(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

// ---- the simulated session ---------------------------------------------------

/// Browser + plug-in + network. Members are declared so that the browser
/// (whose tabs hold plug-in hooks) goes away before the plug-in, and the
/// plug-in before the backends the network routes to.
struct Session {
  Session(core::BrowserFlowConfig config, std::uint64_t seed)
      : netRng(seed * 2654435761u + 17),
        network(&netRng),
        tap(&network),
        plugin(std::make_unique<core::BrowserFlowPlugin>(std::move(config),
                                                         &clock)),
        browser(std::make_unique<browser::Browser>(&tap)) {
    browser->addExtension(plugin.get());
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  template <typename B>
  B& addBackend(const std::string& origin) {
    auto backend = std::make_unique<B>();
    B& ref = *backend;
    network.registerService(origin, &ref);
    backends.push_back(std::move(backend));
    return ref;
  }

  /// Registers `texts[i]` as a document of `services[i % n]`.
  void preload(const std::vector<std::string>& texts,
               const std::vector<std::string>& services) {
    const auto t0 = SteadyClock::now();
    for (std::size_t i = 0; i < texts.size(); ++i) {
      const std::string& service = services[i % services.size()];
      plugin->observeServiceDocument(service,
                                     service + "/book/" + std::to_string(i),
                                     texts[i]);
      preloadBytes += static_cast<double>(texts[i].size());
    }
    preloadSec += secondsSince(t0);
  }

  void addSecrets(std::uint64_t seed, const tdm::Tag& tag) {
    util::Rng rng(seed * 977 + 3);
    for (int i = 0; i < 24; ++i) {
      std::string value = "sk-live-";
      for (int k = 0; k < 20; ++k) {
        value.push_back("0123456789abcdef"[rng.uniform(0, 15)]);
      }
      plugin->secretGuard().addSecret("api-key-" + std::to_string(i), value,
                                      tag);
      secrets.push_back(std::move(value));
    }
  }

  util::LogicalClock clock;
  util::Rng netRng;
  std::vector<std::unique_ptr<cloud::Backend>> backends;
  cloud::SimNetwork network;
  NetTap tap;
  std::unique_ptr<core::BrowserFlowPlugin> plugin;
  std::unique_ptr<browser::Browser> browser;
  std::vector<std::string> secrets;
  double preloadBytes = 0.0;
  double preloadSec = 0.0;
};

core::BrowserFlowConfig configFor(core::EnforcementMode mode) {
  core::BrowserFlowConfig config;
  config.mode = mode;
  return config;
}

// ---- per-phase bookkeeping -----------------------------------------------------

/// What one measured phase saw.
struct Tally {
  EventLog log;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t planted = 0;
  std::uint64_t flagged = 0;
  std::uint64_t fresh = 0;
  std::uint64_t passed = 0;

  void judge(bool planted_, bool violated) {
    if (planted_) {
      ++planted;
      if (violated) ++flagged;
    } else {
      ++fresh;
      if (!violated) ++passed;
    }
  }
};

/// Bench-side spans of a traced phase. Event time splits into the time
/// inside XHR sends or form submits (the upload check plus the network)
/// and the rest (DOM edit plus the mutation-observer path); the network
/// sink decorator splits the network off the upload check.
///
/// Every fifth event's upload is also replayed, right after the event and
/// outside its timer, through single modules' public functions, so each
/// module's cost is taken on the inputs and state the event just saw.
struct Tracer {
  bool on = false;
  double xhrSec = 0.0;
  double submitSec = 0.0;
  double eventSec = 0.0;
  std::uint64_t events = 0;
  std::uint64_t nestingErrors = 0;
  std::uint64_t tick = 0;

  struct Replay {
    std::uint64_t n = 0;
    double sec = 0.0;
    void add(double s) {
      ++n;
      sec += s;
    }
    [[nodiscard]] double meanUs() const { return n ? sec / static_cast<double>(n) * 1e6 : 0.0; }
  };
  Replay fingerprint, findSegment, checkUpload, secretScan, seal;
  double fingerprintBytes = 0.0;

  struct Mark {
    double xhr, submit, net;
  };
  [[nodiscard]] Mark mark(const Session& s) const {
    return {xhrSec, submitSec, s.tap.busySec};
  }
  void record(const Mark& m, double sec, const Session& s) {
    if (!on) return;
    const double inner = (xhrSec - m.xhr) + (submitSec - m.submit);
    const double net = s.tap.busySec - m.net;
    // Child spans must nest: network inside send/submit inside the event.
    if (inner > sec + 1e-6 || net > inner + 1e-6) ++nestingErrors;
    eventSec += sec;
    ++events;
  }

  /// Replays one upload of `text` to `service` from `document`. The
  /// tracked-segment lookup and the label check run only for uploads that
  /// went through the XHR path, which is where the plug-in calls them.
  void replay(core::BrowserFlowPlugin& plugin, const std::string& text,
              const std::string& document, const std::string& segment,
              const std::string& service, bool viaXhr, bool violating) {
    if (!on || (tick++ % 5) != 0) return;
    auto t0 = SteadyClock::now();
    const text::Fingerprint fp =
        text::fingerprintText(text, plugin.tracker().config().fingerprint);
    fingerprint.add(secondsSince(t0));
    fingerprintBytes += static_cast<double>(text.size());
    if (viaXhr) {
      t0 = SteadyClock::now();
      const bool found =
          plugin.tracker().findSegmentWithFingerprint(document, fp).has_value();
      findSegment.add(secondsSince(t0));
      tracked += found ? 1 : 0;
      t0 = SteadyClock::now();
      const bool allowed = plugin.policy().checkUpload(segment, service).allowed;
      checkUpload.add(secondsSince(t0));
      allowedLabels += allowed ? 1 : 0;
    }
    t0 = SteadyClock::now();
    secretHits += plugin.secretGuard().scan(text).size();
    secretScan.add(secondsSince(t0));
    if (violating) {
      t0 = SteadyClock::now();
      sealedBytes += plugin.sealer().seal(text).size();
      seal.add(secondsSince(t0));
    }
  }
  // Results the replays compute, kept so they cannot be optimised away.
  std::uint64_t tracked = 0;
  std::uint64_t allowedLabels = 0;
  std::uint64_t secretHits = 0;
  std::uint64_t sealedBytes = 0;
};

obs::Counter& degradedCounter() {
  static obs::Counter& c = obs::registry().counter("bf_decision_degraded_total");
  return c;
}

/// Runs one event (closed loop: it starts as soon as the previous one
/// finished), times it, and records its latency and the bench-side spans.
/// Returns the page script's status.
template <typename Action>
int timedEvent(Session& s, Tally& t, Tracer& tr, bool& degraded,
               Action&& action) {
  const Tracer::Mark m = tr.mark(s);
  const std::uint64_t degradedBefore = degradedCounter().value();
  const auto t0 = SteadyClock::now();
  const int status = action();
  const double sec = secondsSince(t0);
  t.log.add(sec);
  tr.record(m, sec, s);
  degraded = degradedCounter().value() != degradedBefore;
  ++t.attempted;
  return status;
}

/// The single request an allowed event must have put on the wire, or null
/// (and a violation) if the network log disagrees.
const cloud::SimNetwork::LogEntry* soleRequest(Session& s, Report& r,
                                               const std::string& origin) {
  const auto& log = s.network.log();
  if (log.size() != 1 || browser::originOf(log[0].request.url) != origin) {
    r.violation("expected exactly one request to " + origin + ", saw " +
                std::to_string(log.size()));
    return nullptr;
  }
  return &log[0];
}

/// Deals unit kinds so that every block of cards holds each kind exactly
/// as often as the deck lists it, shuffled within the block: a run's mix
/// is exact instead of binomial, so runs on different seeds differ in
/// content, not in proportions.
class Deck {
 public:
  Deck(std::vector<int> cards, std::uint64_t seed)
      : cards_(std::move(cards)), pos_(cards_.size()), rng_(seed) {}
  int next() {
    if (pos_ == cards_.size()) {
      rng_.shuffle(cards_);
      pos_ = 0;
    }
    return cards_[pos_++];
  }

 private:
  std::vector<int> cards_;
  std::size_t pos_;
  util::Rng rng_;
};

// ---- docs_typing ---------------------------------------------------------------
//
// One user types into a Docs tab in warn mode; the verdict is the paragraph
// highlight. Closed loop: the page script waits for each keystroke. The
// library preload (48 quick-scale books) is far larger than L2, and every
// keystroke runs the paragraph and document decisions and an upload check
// against it, so this is where the decision cache and flow/tdm lookups
// show.

struct TypingWorld {
  TypingWorld(const Corpus& corpus, std::uint64_t seed)
      : s(configFor(core::EnforcementMode::kWarn), seed) {
    s.plugin->policy().services().upsert(
        {kLibrary, "Corporate library", tdm::TagSet{"tl"}, tdm::TagSet{"tl"}});
    s.addSecrets(seed, "tl");
    s.addBackend<cloud::DocsBackend>(kDocs);
    s.preload(corpus.books, {kLibrary});
    tab = &s.browser->openTab(kDocs + "/d/typing");
    docs = std::make_unique<cloud::DocsClient>(*tab, "typing");
    docs->openDocument();
  }

  void tap(Tracer& tr) { tapXhr(*tab, &tr.xhrSec); }
  flow::DurabilityManager* durable() { return nullptr; }

  Session s;
  browser::Page* tab = nullptr;
  std::unique_ptr<cloud::DocsClient> docs;
};

struct TypingUnit {
  std::string text;
  bool planted = false;
  bool paste = false;
};

/// The paper's W1 (type a library paragraph), W2 (type fresh text) and W3
/// (type an edited library paragraph), plus one-event pastes of library or
/// fresh paragraphs.
class TypingUnits {
 public:
  TypingUnits(const Corpus& corpus, std::uint64_t seed)
      : corpus_(corpus),
        kinds_({kTypeCopy, kTypeCopy, kTypeCopy, kTypeFresh, kTypeFresh,
                kTypeFresh, kTypeEdited, kTypeEdited, kTypeEdited, kPasteCopy,
                kPasteCopy, kPasteCopy, kPasteCopy, kPasteCopy, kPasteCopy,
                kPasteCopy, kPasteCopy, kPasteFresh, kPasteFresh, kPasteFresh},
               seed * 37 + 1),
        rng_(seed * 31 + 7),
        genRng_(seed * 131 + 11),
        gen_(&genRng_),
        model_(&gen_, &genRng_) {}

  TypingUnit next() {
    const std::size_t b = rng_.uniform(0, corpus_.docs.size() - 1);
    const std::size_t p = rng_.uniform(0, corpus_.docs[b].paragraphs.size() - 1);
    switch (kinds_.next()) {
      case kTypeCopy:
        return {corpus_.paragraphs[b][p], true, false};
      case kTypeFresh:
        return {gen_.paragraph(3, 6), false, false};
      case kTypeEdited: {
        const double strength = 0.05 + 0.3 * rng_.uniform01();
        return {editedCopy(corpus_.docs[b].paragraphs[p], model_, strength),
                true, false};
      }
      case kPasteCopy:
        return {corpus_.paragraphs[b][p], true, true};
      default:
        return {gen_.paragraph(3, 6), false, true};
    }
  }

 private:
  // The weights are chosen, not measured (no source gives frequencies):
  // W1/W2/W3 equal, as the paper reports them side by side; pastes are
  // over half the units but one event each (about 0.3% of events), there
  // so that a run judges thousands of planted copies. The README records
  // a traced run under another mix.
  enum { kTypeCopy, kTypeFresh, kTypeEdited, kPasteCopy, kPasteFresh };

  const Corpus& corpus_;
  Deck kinds_;
  util::Rng rng_;
  util::Rng genRng_;
  corpus::TextGenerator gen_;
  corpus::RevisionModel model_;
};

/// Runs whole units until `target` events ran (or the time cap passed) and
/// `digest`, if given, is complete.
void typingPhase(TypingWorld& w, TypingUnits& units, std::uint64_t target,
                 double capSec, Tally& t, Tracer& tr, VerdictDigest* digest,
                 Report& r) {
  Session& s = w.s;
  const auto start = SteadyClock::now();
  // Verifies one docs mutation against the wire: warn mode lets every
  // mutation through, so exactly one request carries the paragraph text.
  auto event = [&](auto&& action, const std::string& expected, bool isDelete,
                   std::size_t idx) {
    bool degraded = false;
    const int status = timedEvent(s, t, tr, degraded, action);
    bool ok = status == 200 && !degraded;
    if (const auto* e = soleRequest(s, r, kDocs)) {
      const auto fields = cloud::parseFormBody(e->request.body);
      const auto it = fields.find("text");
      if (!isDelete && (it == fields.end() || it->second != expected)) {
        r.violation("docs mutation body differs from the paragraph text");
        ok = false;
      }
    } else {
      ok = false;
    }
    s.network.clearLog();
    if (ok) ++t.ok;
    browser::Node* node = isDelete ? nullptr : w.docs->paragraphNode(idx);
    const bool violation =
        node != nullptr && node->attribute(core::BrowserFlowPlugin::kStateAttr) ==
                               core::BrowserFlowPlugin::kViolation;
    if (digest != nullptr) {
      digest->add(static_cast<std::uint64_t>(status) * 4 + (violation ? 1 : 0) +
                  (isDelete ? 2 : 0));
    }
    if (!isDelete) {
      tr.replay(*s.plugin, expected, w.tab->url(), s.plugin->segmentNameOf(node),
                kDocs, true, violation);
    }
  };

  while ((t.attempted < target && secondsSince(start) < capSec) ||
         (digest != nullptr && !digest->complete())) {
    const TypingUnit unit = units.next();
    const std::size_t idx = w.docs->paragraphCount();
    if (unit.paste) {
      event([&] { return w.docs->setParagraph(idx, unit.text); }, unit.text,
            false, idx);
    } else {
      std::string typed;
      for (char c : unit.text) {
        typed.push_back(c);
        event([&] { return w.docs->typeChar(idx, c); }, typed, false, idx);
      }
    }
    // Judged when the paragraph is complete.
    browser::Node* node = w.docs->paragraphNode(idx);
    t.judge(unit.planted,
            node != nullptr &&
                node->attribute(core::BrowserFlowPlugin::kStateAttr) ==
                    core::BrowserFlowPlugin::kViolation);
    // The user keeps a short document: the oldest paragraph goes once
    // three exist, so per-keystroke document re-checks stay stationary.
    if (w.docs->paragraphCount() >= 3) {
      event([&] { return w.docs->deleteParagraph(0); }, "", true, 0);
    }
    s.plugin->clearWarnings();
  }
}

// ---- paste_upload ----------------------------------------------------------------
//
// Multi-KB pastes into Docs, multi-paragraph forum posts and JSON note
// saves in block mode (verdict: 403 / suppressed submit). Half the units
// carry HR or legal text edited at varied strength, or a registered
// secret; half are fresh. The preload is small, and a DurabilityManager
// logs every tracker write, so every event fingerprints kilobytes, scores
// candidate sources, scans for secrets and appends to the log.

/// Removes a directory tree when destroyed (declared before the objects
/// that write into it, so it goes last).
struct ScratchDir {
  explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::filesystem::path path;
};

struct PasteWorld {
  PasteWorld(const Corpus& corpus, std::uint64_t seed, int rep)
      : dir(std::filesystem::path(".bench_build") /
            ("e2e-wal-" + std::to_string(::getpid()) + "-" +
             std::to_string(rep))),
        s(configFor(core::EnforcementMode::kBlock), seed) {
    flow::DurabilityConfig dc;
    dc.directory = dir.path.string();
    // Every mutation is logged, but no periodic checkpoint runs while
    // measuring: DBhash keeps the hashes of every overwritten version, so
    // a checkpoint's cost grows with the run (about 0.2 s after 1k events,
    // 1.2 s after 12k, measured), and at the default cadence checkpoints would
    // take a large share of the run. The traced run times one checkpoint
    // of the final state instead (flow.checkpoint_ms).
    dc.checkpointEveryRecords = std::numeric_limits<std::uint64_t>::max();
    durability = std::make_unique<flow::DurabilityManager>(dc);
    if (!durability->recoverAndAttach(s.plugin->tracker()).ok()) {
      throw std::runtime_error("cannot open the WAL directory " + dc.directory);
    }
    s.plugin->engine().setDurability(durability.get());

    auto& services = s.plugin->policy().services();
    services.upsert({kHr, "HR system", tdm::TagSet{"th"}, tdm::TagSet{"th"}});
    services.upsert({kLegal, "Legal", tdm::TagSet{"tg"}, tdm::TagSet{"tg"}});
    s.addSecrets(seed, "th");
    s.addBackend<cloud::DocsBackend>(kDocs);
    s.addBackend<cloud::FormBackend>(kForum);
    notesBackend = &s.addBackend<cloud::NotesBackend>(kNotes);
    s.preload(corpus.books, {kHr, kLegal});

    docsTab = &s.browser->openTab(kDocs + "/d/paste");
    docs = std::make_unique<cloud::DocsClient>(*docsTab, "paste");
    docs->openDocument();
    forumTab = &s.browser->openTab(kForum + "/edit/post");
    forum = std::make_unique<cloud::WikiClient>(*forumTab, "post");
    forum->openEditor();
    notesTab = &s.browser->openTab(kNotes + "/n/1");
    notes = std::make_unique<cloud::NotesClient>(*notesTab, "n1");
    notes->openNote();
  }
  ~PasteWorld() { s.plugin->engine().setDurability(nullptr); }
  void tap(Tracer& tr) {
    tapXhr(*docsTab, &tr.xhrSec);
    tapXhr(*notesTab, &tr.xhrSec);
  }
  flow::DurabilityManager* durable() { return durability.get(); }
  PasteWorld(const PasteWorld&) = delete;
  PasteWorld& operator=(const PasteWorld&) = delete;

  ScratchDir dir;
  std::unique_ptr<flow::DurabilityManager> durability;
  Session s;
  cloud::NotesBackend* notesBackend = nullptr;
  browser::Page* docsTab = nullptr;
  browser::Page* forumTab = nullptr;
  browser::Page* notesTab = nullptr;
  std::unique_ptr<cloud::DocsClient> docs;
  std::unique_ptr<cloud::WikiClient> forum;
  std::unique_ptr<cloud::NotesClient> notes;
};

enum class Channel { kDocsPaste, kForumPost, kNoteSave };

struct PasteUnit {
  Channel channel = Channel::kDocsPaste;
  std::vector<std::string> paragraphs;
  bool planted = false;
};

class PasteUnits {
 public:
  PasteUnits(const Corpus& corpus, const std::vector<std::string>& secrets,
             std::uint64_t seed)
      : corpus_(corpus),
        secrets_(secrets),
        // Chosen weights: one third per upload path; 40% edited corpus
        // text and 10% secrets against 50% fresh, the "half planted, half
        // fresh" split with a fifth of the planted half carried by secrets.
        channels_({0, 1, 2}, seed * 59 + 2),
        contents_({kCorpus, kCorpus, kCorpus, kCorpus, kSecret, kFresh, kFresh,
                   kFresh, kFresh, kFresh},
                  seed * 61 + 4),
        rng_(seed * 53 + 5),
        genRng_(seed * 173 + 9),
        gen_(&genRng_),
        model_(&gen_, &genRng_) {}

  PasteUnit next() {
    PasteUnit u;
    u.channel = static_cast<Channel>(channels_.next());
    // Forum posts always have four paragraphs: a shorter draft would prune
    // the longer one's paragraph segments, and the tracker's periodic
    // compaction of removed segments (one scan of DBhash per 64 removals)
    // would then land on about 1% of events, right at the p99.
    const std::size_t n =
        u.channel == Channel::kForumPost ? 4 : rng_.uniform(3, 6);
    const int kind = contents_.next();
    if (kind == kCorpus) {
      // Consecutive paragraphs of an HR/legal document, each edited.
      const std::size_t b = rng_.uniform(0, corpus_.docs.size() - 1);
      const auto& paras = corpus_.docs[b].paragraphs;
      const std::size_t first = rng_.uniform(0, paras.size() - n);
      const double strength = 0.4 * rng_.uniform01();
      for (std::size_t i = 0; i < n; ++i) {
        u.paragraphs.push_back(editedCopy(paras[first + i], model_, strength));
      }
      u.planted = true;
    } else {
      for (std::size_t i = 0; i < n; ++i) u.paragraphs.push_back(gen_.paragraph());
      if (kind == kSecret) {
        // Fresh prose quoting one registered secret.
        std::string& p = u.paragraphs[rng_.uniform(0, n - 1)];
        p += " The deploy key is " + rng_.pick(secrets_) + " for now.";
        u.planted = true;
      }
    }
    return u;
  }

 private:
  enum { kCorpus, kSecret, kFresh };

  const Corpus& corpus_;
  const std::vector<std::string>& secrets_;
  Deck channels_;
  Deck contents_;
  util::Rng rng_;
  util::Rng genRng_;
  corpus::TextGenerator gen_;
  corpus::RevisionModel model_;
};

/// Runs units until `target` events ran (or the time cap passed) and
/// `digest`, if given, is complete.
void pastePhase(PasteWorld& w, PasteUnits& units, std::uint64_t target,
                double capSec, Tally& t, Tracer& tr, VerdictDigest* digest,
                Report& r) {
  Session& s = w.s;
  const auto start = SteadyClock::now();
  while ((t.attempted < target && secondsSince(start) < capSec) ||
         (digest != nullptr && !digest->complete())) {
    const PasteUnit unit = units.next();
    // Pastes and notes carry one multi-KB paragraph; forum posts keep the
    // paragraph breaks, so the form path checks each paragraph and the
    // whole draft.
    const std::string text =
        joined(unit.paragraphs, unit.channel == Channel::kForumPost ? "\n\n" : " ");
    bool degraded = false;
    int status = 0;
    std::string origin;
    browser::Page* page = nullptr;
    switch (unit.channel) {
      case Channel::kDocsPaste:
        origin = kDocs;
        page = w.docsTab;
        status = timedEvent(s, t, tr, degraded,
                            [&] { return w.docs->setParagraph(0, text); });
        break;
      case Channel::kForumPost:
        origin = kForum;
        page = w.forumTab;
        w.forum->setContent(text);
        status = timedEvent(s, t, tr, degraded, [&] {
          const auto t0 = SteadyClock::now();
          const int st = w.forum->save();
          if (tr.on) tr.submitSec += secondsSince(t0);
          return st;
        });
        break;
      case Channel::kNoteSave:
        origin = kNotes;
        page = w.notesTab;
        status = timedEvent(s, t, tr, degraded,
                            [&] { return w.notes->setParagraph(0, text); });
        break;
    }
    // Block mode: a refused upload never reaches the network; an allowed
    // one arrives exactly once, unaltered.
    const bool blocked = status == 403 || status == 0;
    bool ok = !degraded;
    if (blocked) {
      if (!s.network.log().empty()) {
        r.violation("a blocked upload reached " + origin);
        ok = false;
      }
    } else if (const auto* e = soleRequest(s, r, origin)) {
      bool intact;
      if (unit.channel == Channel::kNoteSave) {
        intact = w.notesBackend->noteText("n1") == text;
      } else {
        const auto fields = cloud::parseFormBody(e->request.body);
        const auto it =
            fields.find(unit.channel == Channel::kDocsPaste ? "text" : "content");
        intact = it != fields.end() && it->second == text;
      }
      if (!intact) {
        r.violation("allowed upload to " + origin + " arrived altered");
        ok = false;
      }
    } else {
      ok = false;
    }
    s.network.clearLog();
    if (ok) ++t.ok;
    t.judge(unit.planted, blocked);
    if (digest != nullptr) {
      digest->add(static_cast<std::uint64_t>(status) * 4 +
                  static_cast<std::uint64_t>(unit.channel));
    }
    tr.replay(*s.plugin, text, page->url(), page->url(), origin,
              unit.channel != Channel::kForumPost, blocked);
    s.plugin->clearWarnings();
  }
}

// ---- per-layer report ------------------------------------------------------------

double histMean(const obs::MetricsSnapshot& d, std::string_view name) {
  const obs::MetricValue* m = d.find(name);
  return m == nullptr ? 0.0 : m->histogram.mean();
}

struct LayerContext {
  Session* s = nullptr;
  Tracer* tr = nullptr;
  obs::MetricsSnapshot delta;
  std::uint64_t requests = 0;
  std::uint64_t requestBytes = 0;
  double untracedEps = 0.0;
  double tracedEps = 0.0;
  double rssAfterSetup = 0.0;
  flow::DurabilityManager* durability = nullptr;
};

void reportLayers(Report& r, const LayerContext& c) {
  Session& s = *c.s;
  const Tracer& tr = *c.tr;
  const obs::MetricsSnapshot& d = c.delta;
  const double events = std::max<double>(1.0, static_cast<double>(tr.events));
  const double inner = tr.xhrSec + tr.submitSec;
  if (tr.nestingErrors != 0) {
    r.violation(std::to_string(tr.nestingErrors) +
                " events whose layer spans do not nest");
  }
  const double mutationSec = tr.eventSec - inner;
  const double uploadSec = inner - s.tap.busySec;
  r.note("layer split per event (us): dom+mutation " +
         std::to_string(mutationSec / events * 1e6) + " + upload check " +
         std::to_string(uploadSec / events * 1e6) + " + network " +
         std::to_string(s.tap.busySec / events * 1e6) + " = event " +
         std::to_string(tr.eventSec / events * 1e6));

  r.add("core.mutation_us", mutationSec / events * 1e6, "us");
  r.add("core.upload_check_us", uploadSec / events * 1e6, "us");
  r.add("core.engine_decide_ms", histMean(d, "bf_decision_latency_ms"), "ms");
  const double decisions =
      static_cast<double>(d.counterValue("bf_flight_decisions_total"));
  r.add("core.decisions_per_event", decisions / events, "count");
  r.add("core.degraded_share",
        decisions > 0 ? static_cast<double>(
                            d.counterValue("bf_decision_degraded_total")) /
                            decisions
                      : 0.0,
        "ratio");

  r.add("text.fingerprint_us", tr.fingerprint.meanUs(), "us");
  r.add("text.bytes_per_event",
        tr.fingerprint.n ? tr.fingerprintBytes / static_cast<double>(tr.fingerprint.n)
                         : 0.0,
        "B");
  r.add("text.fingerprint_mb_s",
        tr.fingerprint.sec > 0 ? tr.fingerprintBytes / tr.fingerprint.sec / 1e6 : 0.0,
        "MB/s");
  r.add("text.stage_fingerprint_us", histMean(d, "bf_stage_fingerprint_us"), "us");

  r.add("flow.lookup_us", histMean(d, "bf_stage_tracker_lookup_us"), "us");
  const double hits = static_cast<double>(d.counterValue("bf_tracker_cache_hits_total"));
  const double misses =
      static_cast<double>(d.counterValue("bf_tracker_cache_misses_total"));
  r.add("flow.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
        "ratio");
  r.add("flow.candidates_per_event",
        static_cast<double>(d.counterValue("bf_tracker_candidates_inspected_total")) /
            events,
        "count");
  flow::FlowTracker& tracker = s.plugin->tracker();
  r.add("flow.find_segment_us", tr.findSegment.meanUs(), "us");
  const flow::FlowTracker::StoreSizes sizes = tracker.storeSizes();
  r.add("flow.segments", static_cast<double>(sizes.segments), "count");
  r.add("flow.distinct_hashes", static_cast<double>(sizes.paragraphHashes), "count");
  r.add("flow.observe_mb_s",
        s.preloadSec > 0 ? s.preloadBytes / s.preloadSec / 1e6 : 0.0, "MB/s");
  r.add("flow.wal_append_us", histMean(d, "bf_stage_wal_append_us"), "us");
  r.add("flow.wal_bytes_per_event",
        static_cast<double>(d.counterValue("bf_wal_bytes_written_total")) / events,
        "B");
  double checkpointMs = 0.0;
  if (c.durability != nullptr) {
    const auto stateLock = s.plugin->engine().lockState();
    const auto t0 = SteadyClock::now();
    if (!c.durability->checkpoint(tracker).ok()) r.violation("checkpoint failed");
    checkpointMs = secondsSince(t0) * 1e3;
  }
  r.add("flow.checkpoint_ms", checkpointMs, "ms");

  r.add("tdm.policy_eval_us", histMean(d, "bf_stage_policy_eval_us"), "us");
  r.add("tdm.check_upload_us", tr.checkUpload.meanUs(), "us");
  r.add("secret.scan_us", tr.secretScan.meanUs(), "us");
  r.add("crypto.seal_us", tr.seal.meanUs(), "us");
  r.note("replayed " + std::to_string(tr.fingerprint.n) + " uploads: " +
         std::to_string(tr.tracked) + " of " + std::to_string(tr.findSegment.n) +
         " XHR uploads were tracked segments, " + std::to_string(tr.secretHits) +
         " secret hits, " + std::to_string(tr.seal.n) + " sealed (" +
         std::to_string(tr.sealedBytes) + " envelope bytes)");

  r.add("cloud.request_us",
        c.requests > 0 ? s.tap.busySec / static_cast<double>(c.requests) * 1e6 : 0.0,
        "us");
  r.add("cloud.requests_per_event", static_cast<double>(c.requests) / events, "count");
  r.add("cloud.bytes_per_event", static_cast<double>(c.requestBytes) / events, "B");

  r.add("mem.rss_growth_mb", rssMb() - c.rssAfterSetup, "MiB");
  r.add("obs.trace_overhead",
        c.tracedEps > 0 ? c.untracedEps / c.tracedEps - 1.0 : 0.0, "ratio");
}

// ---- running a workload ------------------------------------------------------------

/// End-to-end metrics of an untraced run.
void reportEndToEnd(Report& r, const std::vector<double>& setupSec,
                    const Tally& t) {
  r.add("setup_s", median(setupSec), "s");
  r.add("verdict_p50_ms", t.log.percentileMs(50), "ms");
  r.add("verdict_p99_ms", t.log.percentileMs(99), "ms");
  r.add("events_per_s", t.log.eventsPerSec(), "1/s");
  r.add("peak_rss_mb", peakRssMb(), "MiB");
  r.add("leak_recall",
        t.planted ? static_cast<double>(t.flagged) / static_cast<double>(t.planted)
                  : 1.0,
        "ratio");
  r.add("fresh_pass_rate",
        t.fresh ? static_cast<double>(t.passed) / static_cast<double>(t.fresh)
                : 1.0,
        "ratio");
  r.add("verdict_ok_share",
        t.attempted ? static_cast<double>(t.ok) / static_cast<double>(t.attempted)
                    : 0.0,
        "ratio");
  r.note("verdict samples: " + std::to_string(t.log.size()) +
         " events; planted " + std::to_string(t.planted) + ", fresh " +
         std::to_string(t.fresh));
}

/// Folds the correctness-relevant counts of `t` into the report.
void account(Report& r, const Tally& t) {
  r.attempted += t.attempted;
  r.failed += t.attempted - t.ok;
}

void checkQuality(Report& r, const Tally& t) {
  if (t.planted > 0 &&
      static_cast<double>(t.flagged) < kMinLeakRecall * static_cast<double>(t.planted)) {
    r.violation("leak recall " + std::to_string(t.flagged) + "/" +
                std::to_string(t.planted) + " below the floor");
  }
  if (t.fresh > 0 &&
      static_cast<double>(t.passed) < kMinFreshPassRate * static_cast<double>(t.fresh)) {
    r.violation("fresh pass rate " + std::to_string(t.passed) + "/" +
                std::to_string(t.fresh) + " below the floor");
  }
}

Tally merged(const Tally& a, const Tally& b) {
  Tally m;
  m.attempted = a.attempted + b.attempted;
  m.ok = a.ok + b.ok;
  m.planted = a.planted + b.planted;
  m.flagged = a.flagged + b.flagged;
  m.fresh = a.fresh + b.fresh;
  m.passed = a.passed + b.passed;
  return m;
}

/// How a workload's run is sized.
struct Shape {
  /// Set-ups per untraced run; setup_s is their median, so one set-up
  /// caught in a slow moment of the host does not move it.
  int setupReps;
  /// Events measured per second of --seconds: about the rate measured at
  /// this commit, so a run measures for about --seconds (a quarter longer
  /// in the host's slow spells).
  double eventsPerSecond;
  /// Verdicts covered by the same-seed digest.
  std::uint64_t digestEvents;
};

/// Builds the world `reps` times and keeps the last; returns the set-up
/// durations. `spare(world)` runs on the first world before it is dropped
/// (when more than one is built).
template <typename World, typename Make, typename Spare>
std::vector<double> setUp(std::unique_ptr<World>& world, int reps, Make&& make,
                          Spare&& spare) {
  std::vector<double> secs;
  for (int rep = 0; rep < reps; ++rep) {
    world.reset();
    // Hand the torn-down world's pages back, so each set-up starts from
    // the same footprint and peak RSS reflects one world, not the sum of
    // allocator leftovers.
    ::malloc_trim(0);
    const auto t0 = SteadyClock::now();
    world = make(rep);
    secs.push_back(secondsSince(t0));
    if (rep == 0 && reps > 1) spare(*world);
  }
  return secs;
}

void checkDigests(Report& r, const VerdictDigest& a, const VerdictDigest& b) {
  r.note("verdict digest: " + b.hex() + " over " + std::to_string(b.count()) +
         " events; second session on the same seed: " + a.hex());
  if (!a.complete() || !b.complete() || a.hex() != b.hex()) {
    r.violation("two sessions on the same seed gave different verdicts (" +
                a.hex() + " vs " + b.hex() + ")");
  }
}

void noteCap(Report& r, const Tally& t, std::uint64_t target) {
  if (t.attempted < target) {
    r.note("time cap reached after " + std::to_string(t.attempted) + " of " +
           std::to_string(target) + " events");
  }
}

/// Runs a workload. `run(world, target, capSec, tally, tracer, digest, r)`
/// runs one session on `world` from fresh inputs of the seed.
///
/// Untraced: set up Shape::setupReps times, replay the digest prefix on
/// the first world, measure the fixed number of events on the last; the
/// two digests must agree. Traced: two sessions on identical inputs, each
/// from a fresh set-up and half the events, the first untraced (the
/// overhead baseline) and the second with tracing on (every decision
/// sampled, bench spans on); both reach the same state, so their rates
/// compare like for like, and their digests must agree.
template <typename World, typename Make, typename Run>
Report runSessions(const RunOptions& o, const Shape& shape, Make&& make,
                   Run&& run) {
  Report r;
  const auto target = static_cast<std::uint64_t>(o.seconds * shape.eventsPerSecond);
  const double capSec = std::min(kCapFactor * o.seconds, kMaxMeasureSec);
  VerdictDigest first(shape.digestEvents), second(shape.digestEvents);
  std::unique_ptr<World> w;
  Tracer off;
  if (!o.trace) {
    const std::vector<double> setupSec =
        setUp(w, shape.setupReps, make, [&](World& spare) {
          Tally t;
          run(spare, 0, capSec, t, off, &first, r);
        });
    r.note("preload of the last set-up: " + std::to_string(w->s.preloadBytes / 1e6) +
           " MB in " + std::to_string(w->s.preloadSec) + " s");
    Tally t;
    run(*w, target, capSec, t, off, &second, r);
    noteCap(r, t, target);
    account(r, t);
    checkQuality(r, t);
    reportEndToEnd(r, setupSec, t);
    checkDigests(r, first, second);
    return r;
  }

  setUp(w, 1, make, [](World&) {});
  Tally base;
  run(*w, target / 2, capSec / 2, base, off, &first, r);
  noteCap(r, base, target / 2);
  account(r, base);
  setUp(w, 1, make, [](World&) {});
  const double rssAfterSetup = rssMb();

  obs::setTraceSampleEvery(1);
  Tracer tracer;
  tracer.on = true;
  w->tap(tracer);
  Session& s = w->s;
  s.tap.timing = true;
  const std::uint64_t req0 = s.tap.requests, bytes0 = s.tap.bytes;
  const obs::MetricsSnapshot before = obs::registry().snapshot();
  Tally traced;
  run(*w, target / 2, capSec / 2, traced, tracer, &second, r);
  LayerContext c;
  c.delta = obs::registry().snapshot().diff(before);
  noteCap(r, traced, target / 2);
  account(r, traced);
  checkQuality(r, merged(base, traced));
  c.s = &s;
  c.tr = &tracer;
  c.requests = s.tap.requests - req0;
  c.requestBytes = s.tap.bytes - bytes0;
  c.untracedEps = base.log.eventsPerSec();
  c.tracedEps = traced.log.eventsPerSec();
  c.rssAfterSetup = rssAfterSetup;
  c.durability = w->durable();
  reportLayers(r, c);
  checkDigests(r, first, second);
  return r;
}

Report runDocsTyping(const RunOptions& o) {
  const Corpus corpus = makeCorpus(48);
  return runSessions<TypingWorld>(
      o, Shape{5, 8000.0, 3000},
      [&](int) { return std::make_unique<TypingWorld>(corpus, o.seed); },
      [&](TypingWorld& w, std::uint64_t target, double capSec, Tally& t,
          Tracer& tr, VerdictDigest* digest, Report& r) {
        TypingUnits units(corpus, o.seed);
        typingPhase(w, units, target, capSec, t, tr, digest, r);
      });
}

Report runPasteUpload(const RunOptions& o) {
  const Corpus corpus = makeCorpus(6);
  return runSessions<PasteWorld>(
      o, Shape{15, 600.0, 400},
      [&](int rep) { return std::make_unique<PasteWorld>(corpus, o.seed, rep); },
      [&](PasteWorld& w, std::uint64_t target, double capSec, Tally& t,
          Tracer& tr, VerdictDigest* digest, Report& r) {
        PasteUnits units(corpus, w.s.secrets, o.seed);
        pastePhase(w, units, target, capSec, t, tr, digest, r);
      });
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"docs_typing", "paste_upload"};
  return names;
}

Report runWorkload(const RunOptions& options) {
  if (options.workload == "docs_typing") return runDocsTyping(options);
  return runPasteUpload(options);
}

}  // namespace e2e
