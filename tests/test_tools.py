import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "artifact_digests.py")


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
                 "identity/verify.stdout", "digits/probe/checkpoint.bin",
                 "digits/probe/manifest.txt"):
        assert name in names
    for run_name in ("digits", "digits-gan", "digits-cgan", "digits-acgan"):
        assert any(name.startswith(f"{run_name}/samples_step") for name in names)
    assert not any("idx" in name for name in names)  # the corpus is an input
    assert all(len(line.split()[1]) == 64 for line in first)
