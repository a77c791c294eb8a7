import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "artifact_digests.py")


def test_artifact_digests_repeat_line_for_line():
    # the second run keeps off the helper thread, which must change no bit
    def run(*flags):
        done = subprocess.run([sys.executable, TOOL, "1", "--tiny", *flags], capture_output=True,
                              text=True, timeout=300, check=True)
        return done.stdout.splitlines()

    first = run()
    assert first == run("--serial")
    names = [line.split()[0] for line in first]
    for run_name in ("ring", "gan", "cgan", "acgan", "digits",
                     "digits-gan", "digits-cgan", "digits-acgan"):
        for artifact in ("metrics.csv", "checkpoint.bin", "manifest.txt", "confusion.csv"):
            assert f"{run_name}/{artifact}" in names
    for name in ("ring/eval.stdout", "acgan/eval.stdout", "digits/eval.stdout",
                 "identity/verify.stdout", "identity/verify-wide.stdout",
                 "digits/probe/checkpoint.bin",
                 "digits/probe/manifest.txt"):
        assert name in names
    for run_name in ("digits", "digits-gan", "digits-cgan", "digits-acgan"):
        assert any(name.startswith(f"{run_name}/samples_step") for name in names)
    assert not any("idx" in name for name in names)  # the corpus is an input
    assert not any(name.endswith(".tmp") for name in names)  # every file renamed into place
    assert all(len(line.split()[1]) == 64 for line in first)


def test_the_benchmark_tracer_parents_each_optimizer_and_classifier_step_by_its_train_step():
    # the per-phase step timings read these parents: D's step ends with the
    # first optimizer step directly under the train step, C's is the
    # classifier step directly under it
    code = "\n".join([
        "import json, sys",
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {os.path.join(ROOT, 'perfbench')!r}]",
        "import numpy as np",
        "import auxgan.harness",
        "from auxgan import data, schemes",
        "from tracing import Tracer",
        "tracer = Tracer()",
        "tracer.install(trio_of=lambda: None)",
        "spec, rng = data.GaussianMixtureSpec.ring(n_classes=4), np.random.default_rng(0)",
        "for scheme in ('gan', 'acgan', 'vacgan'):",
        "    cfg = schemes.SchemeConfig(scheme=scheme, n_classes=4, noise_dim=4)",
        "    trio = schemes.build_trio(cfg, 2, rng=rng)",
        "    for _ in range(3):",
        "        schemes.train_step(data.sample_mixture(spec, rng, 16), rng.integers(0, 4, 16),",
        "                           trio, cfg, rng)",
        "print(json.dumps([(name, parent) for name, _, _, parent, _ in tracer.spans]))",
    ])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    spans = json.loads(done.stdout)
    steps = {i: [] for i, (name, _) in enumerate(spans) if name == "schemes.train_step"}
    for name, parent in spans:
        if name.startswith("optim.") and spans[parent][0] == "schemes.classifier_step":
            continue  # the classifier's own step, inside the classifier step
        if name == "schemes.classifier_step" or name.startswith("optim."):
            assert spans[parent][0] == "schemes.train_step", name
            steps[parent].append(name)
    # gan: D's and G's Adam steps; acgan and vacgan: C's step too
    assert [len(names) for names in steps.values()] == [2] * 3 + [3] * 6
