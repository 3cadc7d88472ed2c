"""Docs are part of the contract: the serving API must pydoc-render with
full docstring coverage, and the docs tree must exist with live links."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "scripts" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_tree_exists_and_is_linked_from_readme():
    readme = (REPO_ROOT / "README.md").read_text()
    for page in ("architecture.md", "serving.md", "benchmarks.md"):
        assert (REPO_ROOT / "docs" / page).exists(), f"docs/{page} missing"
        assert f"docs/{page}" in readme, f"README does not link docs/{page}"


def test_serving_api_renders_with_docstrings(tmp_path):
    check_docs = load_check_docs()
    failures = check_docs.render_api_docs(render_dir=tmp_path)
    failures += check_docs.check_public_docstrings()
    assert not failures, "\n".join(failures)


def test_no_dead_relative_links():
    check_docs = load_check_docs()
    failures = check_docs.check_links()
    assert not failures, "\n".join(failures)


def test_readme_documents_deadline_ignoring_max_batch():
    """PR 5 drift fix: the scheduler guide must not claim ``max_batch``
    is always honoured — the deadline policy ignores it."""
    readme = " ".join((REPO_ROOT / "README.md").read_text().split())
    assert ("`deadline` ignores it" in readme
            or "`max_batch` is ignored" in readme)


def test_config_and_stats_names_in_docs_exist():
    """Every backticked ``ServingConfig.<name>`` / ``ServiceStats.<name>``
    / ``EnsemblerConfig.<name>`` / ``ExperimentPreset.<name>`` in
    README/docs names a real attribute, and a deleted one is caught."""
    check_docs = load_check_docs()
    failures = check_docs.check_attribute_refs()
    assert not failures, "\n".join(failures)
    text = ("`ServingConfig.max_batch`, `ServiceStats.mean_coalesced`, "
            "`EnsemblerConfig.num_nets`, `ExperimentPreset.ensembler_config`, "
            "`ServingConfig.fast_path`, `ServiceStats.speculative_merges`, "
            "`EnsemblerConfig.backend` and `ExperimentPreset.backend`")
    assert check_docs.stale_attribute_refs(text) == [
        "ServingConfig.fast_path", "ServiceStats.speculative_merges",
        "EnsemblerConfig.backend", "ExperimentPreset.backend"]


def test_scheduler_names_in_docs_exist():
    """Every ``scheduler="<name>"`` in README/docs is a registry key and
    every backticked ``<Name>Scheduler`` is exported by ``repro.serving``;
    a retired alias or class is caught."""
    check_docs = load_check_docs()
    failures = check_docs.check_scheduler_refs()
    assert not failures, "\n".join(failures)
    text = ('`scheduler="fair"`, `scheduler="fair-share"`, '
            '`WeightedFairScheduler` and `FairShareScheduler`')
    assert check_docs.stale_scheduler_refs(text) == [
        'scheduler="fair-share"', "`FairShareScheduler`"]
