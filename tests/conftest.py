"""Settings shared by every test module."""

from hypothesis import settings

# A failing property prints its @reproduce_failure blob, so a failure seen
# only on another machine replays locally. Example counts, deadlines and
# seeds stay as each test sets them.
settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")
