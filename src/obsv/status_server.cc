#include "obsv/status_server.h"

#include <cstdlib>

#include "obsv/sampling_core.h"
#include "obsv/telemetry.h"
#include "prov/explain.h"
#include "util/metrics.h"
#include "util/prometheus.h"
#include "util/trace.h"

namespace ltee::obsv {

namespace {

/// A bounded on-demand capture endpoint: a worker thread samples the
/// whole process for `seconds`, then streams the collapsed stacks. One
/// capture per sampler at a time; a concurrent caller gets 503 and
/// retries, it is never queued behind a foreign capture.
struct CaptureEndpoint {
  const char* path;
  /// The integer query parameter that sets the rate, and its range.
  const char* rate_param;
  long default_rate;
  long max_rate;
  /// Session rate per unit of the parameter.
  uint64_t rate_unit;
  sampling::Session& (*sampler)();
};

constexpr CaptureEndpoint kCaptureEndpoints[] = {
    {"/profile", "hz", 99, 1000, 1, &sampling::CpuSampler},
    // One sample per `sample_kb` allocated kilobytes per thread.
    {"/memory", "sample_kb", 64, 65536, 1024, &sampling::HeapSampler},
};

HttpResponse ServeCapture(const CaptureEndpoint& endpoint,
                          const HttpRequest& request) {
  HttpResponse response;
  double seconds = 1.0;
  long rate = endpoint.default_rate;
  const std::string seconds_param = QueryParam(request.query, "seconds");
  if (!seconds_param.empty()) {
    char* end = nullptr;
    seconds = std::strtod(seconds_param.c_str(), &end);
    if (end == nullptr || *end != '\0' || !(seconds > 0.0) ||
        seconds > 30.0) {
      response.status = 400;
      response.body = "seconds must be a number in (0, 30]\n";
      return response;
    }
  }
  const std::string rate_param = QueryParam(request.query, endpoint.rate_param);
  if (!rate_param.empty()) {
    char* end = nullptr;
    rate = std::strtol(rate_param.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || rate < 1 ||
        rate > endpoint.max_rate) {
      response.status = 400;
      response.body = std::string(endpoint.rate_param) +
                      " must be an integer in [1, " +
                      std::to_string(endpoint.max_rate) + "]\n";
      return response;
    }
  }
  std::string collapsed;
  std::string error;
  if (!endpoint.sampler().Capture(seconds,
                                  static_cast<uint64_t>(rate) * endpoint.rate_unit,
                                  &collapsed, &error)) {
    response.status = 503;
    response.body = error + "\n";
    return response;
  }
  response.content_type = "text/plain; charset=utf-8";
  response.body = std::move(collapsed);
  return response;
}

}  // namespace

StatusServer::StatusServer(size_t num_workers) : server_(num_workers) {
  server_.Handle("/healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  server_.Handle("/metrics", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = util::RenderPrometheusText(util::Metrics().Snapshot());
    return response;
  });
  server_.Handle("/stats", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = RenderStatsJson(server_.in_flight());
    return response;
  });
  server_.Handle("/trace", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = util::trace::ExportChromeTrace();
    return response;
  });
  for (const CaptureEndpoint& endpoint : kCaptureEndpoints) {
    server_.Handle(endpoint.path, [&endpoint](const HttpRequest& request) {
      return ServeCapture(endpoint, request);
    });
  }
  server_.Handle("/report", [this](const HttpRequest&) {
    HttpResponse response;
    std::lock_guard<std::mutex> lock(report_mu_);
    if (report_json_.empty()) {
      response.status = 404;
      response.body = "no report published yet\n";
    } else {
      response.content_type = "application/json";
      response.body = report_json_;
    }
    return response;
  });
  server_.Handle("/provenance", [this](const HttpRequest& request) {
    HttpResponse response;
    std::string ledger;
    {
      std::lock_guard<std::mutex> lock(report_mu_);
      ledger = provenance_jsonl_;
    }
    if (ledger.empty()) {
      response.status = 404;
      response.body = "no provenance ledger published yet\n";
      return response;
    }
    const std::string entity = QueryParam(request.query, "entity");
    if (entity.empty()) {
      // No filter: the raw JSON-lines ledger.
      response.content_type = "application/x-ndjson";
      response.body = std::move(ledger);
      return response;
    }
    prov::ExplainOptions options;
    options.entity = entity;
    options.property = QueryParam(request.query, "property");
    options.json = true;
    const prov::ExplainResult result = prov::Explain(ledger, options);
    if (!result.ok) {
      response.status = 500;
      response.body = result.error + "\n";
      return response;
    }
    response.content_type = "application/json";
    response.body = result.output;
    return response;
  });
}

bool StatusServer::Start(uint16_t port, std::string* error) {
  return server_.Start(port, error);
}

void StatusServer::Stop() { server_.Stop(); }

void StatusServer::PublishReport(std::string report_json) {
  std::lock_guard<std::mutex> lock(report_mu_);
  report_json_ = std::move(report_json);
}

void StatusServer::PublishProvenance(std::string ledger_jsonl) {
  std::lock_guard<std::mutex> lock(report_mu_);
  provenance_jsonl_ = std::move(ledger_jsonl);
}

}  // namespace ltee::obsv
